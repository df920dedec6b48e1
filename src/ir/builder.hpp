// Fluent construction API for IR functions. The six Rosetta-like design
// generators in src/apps are written against this interface, so it favours
// terseness: binary helpers infer result widths, a loop stack tracks the
// innermost region, and a current source line provides provenance.
#pragma once

#include <string>
#include <vector>

#include "ir/function.hpp"

namespace hcp::ir {

class Builder {
 public:
  explicit Builder(Function& fn) : fn_(fn) {}

  /// Sets the source line attached to subsequently created ops.
  Builder& atLine(std::int32_t line) {
    line_ = line;
    return *this;
  }

  // --- structure -------------------------------------------------------
  /// Opens a loop region nested in the current one.
  LoopId beginLoop(const std::string& name, std::uint64_t tripCount);
  /// Closes the innermost loop.
  void endLoop();
  LoopId currentLoop() const {
    return loopStack_.empty() ? kRootRegion : loopStack_.back();
  }

  PortId inPort(const std::string& name, std::uint16_t width);
  PortId outPort(const std::string& name, std::uint16_t width);
  ArrayId array(const std::string& name, std::uint64_t words,
                std::uint16_t width);

  // --- leaf ops ----------------------------------------------------------
  OpId constant(std::int64_t value, std::uint16_t width);
  OpId readPort(PortId port);

  // --- generic -------------------------------------------------------------
  /// Creates an op with explicit operands; bitsUsed defaults to the full
  /// producer width (clamped per-operand via `use`).
  OpId make(Opcode opcode, std::uint16_t width, std::vector<OpId> operands,
            const std::string& name = "");

  /// Creates an op whose operand list carries explicit wire counts.
  OpId makeWithBits(Opcode opcode, std::uint16_t width,
                    std::vector<Operand> operands,
                    const std::string& name = "");

  // --- binary/unary conveniences (result width = max operand width unless
  // the opcode dictates otherwise, e.g. comparisons are 1 bit) ---------------
  OpId add(OpId a, OpId b) { return binary(Opcode::Add, a, b); }
  OpId sub(OpId a, OpId b) { return binary(Opcode::Sub, a, b); }
  OpId mul(OpId a, OpId b) { return binaryWide(Opcode::Mul, a, b); }
  OpId div(OpId a, OpId b) { return binary(Opcode::Div, a, b); }
  OpId fadd(OpId a, OpId b) { return binary(Opcode::FAdd, a, b); }
  OpId fsub(OpId a, OpId b) { return binary(Opcode::FSub, a, b); }
  OpId fmul(OpId a, OpId b) { return binary(Opcode::FMul, a, b); }
  OpId fdiv(OpId a, OpId b) { return binary(Opcode::FDiv, a, b); }
  OpId and_(OpId a, OpId b) { return binary(Opcode::And, a, b); }
  OpId xor_(OpId a, OpId b) { return binary(Opcode::Xor, a, b); }
  OpId lshr(OpId a, OpId b) { return binary(Opcode::LShr, a, b); }
  OpId min(OpId a, OpId b) { return binary(Opcode::Min, a, b); }
  OpId max(OpId a, OpId b) { return binary(Opcode::Max, a, b); }
  OpId absdiff(OpId a, OpId b) { return binary(Opcode::AbsDiff, a, b); }
  OpId icmpLt(OpId a, OpId b) { return cmp(Opcode::ICmpLt, a, b); }
  OpId icmpGt(OpId a, OpId b) { return cmp(Opcode::ICmpGt, a, b); }
  OpId icmpEq(OpId a, OpId b) { return cmp(Opcode::ICmpEq, a, b); }
  OpId icmpGe(OpId a, OpId b) { return cmp(Opcode::ICmpGe, a, b); }
  OpId select(OpId cond, OpId t, OpId f);
  OpId neg(OpId a) { return unary(Opcode::Neg, a); }
  OpId not_(OpId a) { return unary(Opcode::Not, a); }
  OpId popcount(OpId a);
  OpId trunc(OpId a, std::uint16_t width);
  OpId zext(OpId a, std::uint16_t width);
  OpId concat(OpId hi, OpId lo);
  /// Extracts `width` bits starting at `offset` from a's result.
  OpId extract(OpId a, std::uint16_t offset, std::uint16_t width);

  // --- memory / io -----------------------------------------------------
  OpId load(ArrayId arr, OpId index);
  OpId store(ArrayId arr, OpId index, OpId value);
  OpId writePort(PortId port, OpId value);
  OpId ret();
  OpId call(const std::string& callee, std::vector<OpId> args,
            std::uint16_t resultWidth);

  Function& function() { return fn_; }

 private:
  OpId binary(Opcode opcode, OpId a, OpId b);
  OpId binaryWide(Opcode opcode, OpId a, OpId b);  // width = sum (mul-like)
  OpId cmp(Opcode opcode, OpId a, OpId b);
  OpId unary(Opcode opcode, OpId a);
  Operand fullUse(OpId id) const;

  Function& fn_;
  std::vector<LoopId> loopStack_;
  std::int32_t line_ = 0;
};

}  // namespace hcp::ir
