#include "ir/opcode.hpp"

#include <array>

#include "support/error.hpp"

namespace hcp::ir {

namespace {
constexpr std::array<std::string_view, kNumOpcodes> kNames = {
    "add",      "sub",      "mul",      "div",      "rem",      "neg",
    "fadd",     "fsub",     "fmul",     "fdiv",     "fsqrt",
    "and",      "or",       "xor",      "not",      "shl",      "lshr",
    "ashr",
    "icmp_eq",  "icmp_ne",  "icmp_lt",  "icmp_le",  "icmp_gt",  "icmp_ge",
    "fcmp",
    "select",   "mux",
    "load",     "store",    "alloca",
    "trunc",    "zext",     "sext",     "bitcast",
    "phi",      "call",     "ret",      "br",       "switch",
    "concat",   "extract",  "popcount", "absdiff",
    "muladd",   "mac",      "dot",
    "const",    "readport", "writeport", "port",
    "min",      "max",      "passthrough",
};
}  // namespace

std::string_view opcodeName(Opcode op) {
  const auto idx = static_cast<std::size_t>(op);
  HCP_CHECK(idx < kNumOpcodes);
  return kNames[idx];
}

bool hasSideEffects(Opcode op) {
  switch (op) {
    case Opcode::Store:
    case Opcode::WritePort:
    case Opcode::Ret:
    case Opcode::Br:
    case Opcode::Switch:
    case Opcode::Call:
      return true;
    default:
      return false;
  }
}

bool isFunctionalUnit(Opcode op) {
  switch (op) {
    case Opcode::Const:
    case Opcode::Phi:
    case Opcode::Br:
    case Opcode::Switch:
    case Opcode::Ret:
    case Opcode::Port:
    case Opcode::ReadPort:
    case Opcode::WritePort:
    case Opcode::Alloca:
    case Opcode::BitCast:
    case Opcode::Passthrough:
    // Width casts and bit extraction are pure wiring on an FPGA — no LUTs,
    // no cell; their consumers connect straight to the producer.
    case Opcode::Trunc:
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Extract:
    // A call's hardware is the callee module instance, not an operator.
    case Opcode::Call:
      return false;
    default:
      return true;
  }
}

bool isSharable(Opcode op) {
  switch (op) {
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::FSqrt:
    case Opcode::MulAdd:
    case Opcode::Mac:
    case Opcode::Dot:
      return true;
    default:
      return false;
  }
}

Opcode opcodeFromIndex(std::size_t idx) {
  HCP_CHECK(idx < kNumOpcodes);
  return static_cast<Opcode>(idx);
}

}  // namespace hcp::ir
