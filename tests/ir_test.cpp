#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ir/builder.hpp"
#include "ir/module.hpp"
#include "ir/opcode.hpp"
#include "ir/verifier.hpp"

namespace hcp::ir {
namespace {

TEST(Opcode, ExactlyFiftyThreeKinds) {
  // The feature registry's operator-type category depends on this count
  // (2 * 53 + 1 = 107 features).
  EXPECT_EQ(kNumOpcodes, 53u);
}

TEST(Opcode, NamesUniqueAndNonEmpty) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kNumOpcodes; ++i) {
    const auto name = opcodeName(opcodeFromIndex(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate: " << name;
  }
}

TEST(Opcode, SideEffectClassification) {
  EXPECT_TRUE(hasSideEffects(Opcode::Store));
  EXPECT_TRUE(hasSideEffects(Opcode::WritePort));
  EXPECT_TRUE(hasSideEffects(Opcode::Ret));
  EXPECT_FALSE(hasSideEffects(Opcode::Add));
  EXPECT_FALSE(hasSideEffects(Opcode::Load));
}

TEST(Opcode, WiringOpsAreNotFunctionalUnits) {
  for (Opcode op : {Opcode::Trunc, Opcode::ZExt, Opcode::SExt,
                    Opcode::Extract, Opcode::Passthrough, Opcode::BitCast,
                    Opcode::Call, Opcode::Const, Opcode::Phi}) {
    EXPECT_FALSE(isFunctionalUnit(op)) << opcodeName(op);
  }
  for (Opcode op : {Opcode::Add, Opcode::Mul, Opcode::Load, Opcode::Select,
                    Opcode::PopCount}) {
    EXPECT_TRUE(isFunctionalUnit(op)) << opcodeName(op);
  }
}

TEST(Opcode, SharableOpsAreExpensive) {
  EXPECT_TRUE(isSharable(Opcode::Mul));
  EXPECT_TRUE(isSharable(Opcode::Div));
  EXPECT_TRUE(isSharable(Opcode::FMul));
  EXPECT_FALSE(isSharable(Opcode::Add));
  EXPECT_FALSE(isSharable(Opcode::Xor));
}

// --- builder ---------------------------------------------------------------

TEST(Builder, BinaryInfersWidth) {
  Function fn("f");
  Builder b(fn);
  const auto p = b.inPort("x", 16);
  const auto out = b.outPort("y", 32);
  const OpId x = b.readPort(p);
  const OpId c = b.constant(3, 8);
  const OpId sum = b.add(x, c);
  EXPECT_EQ(fn.op(sum).bitwidth, 16);  // max of operand widths
  const OpId prod = b.mul(x, c);
  EXPECT_EQ(fn.op(prod).bitwidth, 24);  // sum of widths
  b.writePort(out, prod);
  b.ret();
  EXPECT_TRUE(verify(fn).empty());
}

TEST(Builder, CompareIsOneBit) {
  Function fn("f");
  Builder b(fn);
  const auto p = b.inPort("x", 16);
  const auto out = b.outPort("y", 1);
  const OpId x = b.readPort(p);
  const OpId cmp = b.icmpGt(x, b.constant(5, 8));
  EXPECT_EQ(fn.op(cmp).bitwidth, 1);
  b.writePort(out, cmp);
  b.ret();
  EXPECT_TRUE(verify(fn).empty());
}

TEST(Builder, TruncUsesFewerWires) {
  Function fn("f");
  Builder b(fn);
  const auto p = b.inPort("x", 32);
  const OpId x = b.readPort(p);
  const OpId t = b.trunc(x, 8);
  // The paper's edge weight: the connection carries only the used bits.
  EXPECT_EQ(fn.op(t).operands[0].bitsUsed, 8);
}

TEST(Builder, PopcountWidth) {
  Function fn("f");
  Builder b(fn);
  const auto p = b.inPort("x", 32);
  const OpId x = b.readPort(p);
  const OpId pc = b.popcount(x);
  // 32 -> needs 6 bits (values 0..32).
  EXPECT_EQ(fn.op(pc).bitwidth, 6);
}

TEST(Builder, LoopNesting) {
  Function fn("f");
  Builder b(fn);
  const LoopId outer = b.beginLoop("outer", 10);
  const LoopId inner = b.beginLoop("inner", 4);
  const OpId c = b.constant(1, 8);
  EXPECT_EQ(fn.op(c).loop, inner);
  b.endLoop();
  const OpId c2 = b.constant(2, 8);
  EXPECT_EQ(fn.op(c2).loop, outer);
  b.endLoop();
  b.ret();
  EXPECT_EQ(fn.loop(inner).parent, outer);
  EXPECT_TRUE(fn.inLoop(c, outer));
  EXPECT_FALSE(fn.inLoop(c2, inner));
}

TEST(Builder, EndLoopWithoutBeginThrows) {
  Function fn("f");
  Builder b(fn);
  EXPECT_THROW(b.endLoop(), hcp::Error);
}

TEST(Builder, SourceLineProvenance) {
  Function fn("f");
  Builder b(fn);
  b.atLine(77);
  const OpId c = b.constant(0, 4);
  EXPECT_EQ(fn.op(c).sourceLine, 77);
}

// --- verifier ----------------------------------------------------------

TEST(Verifier, MissingRetReported) {
  Function fn("f");
  Builder b(fn);
  b.constant(1, 4);
  const auto errors = verify(fn);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("missing ret"), std::string::npos);
}

TEST(Verifier, UseBeforeDefReported) {
  Function fn("f");
  Builder b(fn);
  Op op;
  op.opcode = Opcode::Neg;
  op.bitwidth = 8;
  op.operands = {Operand{5, 8}};  // forward reference
  fn.addOp(std::move(op));
  b.ret();
  // Either "use before def" or "operand out of range" depending on count.
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, OverWideOperandReported) {
  Function fn("f");
  Builder b(fn);
  const OpId c = b.constant(1, 4);
  Op op;
  op.opcode = Opcode::Neg;
  op.bitwidth = 8;
  op.operands = {Operand{c, 8}};  // uses 8 bits of a 4-bit value
  fn.addOp(std::move(op));
  b.ret();
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, PortDirectionEnforced) {
  Function fn("f");
  Builder b(fn);
  const auto out = b.outPort("o", 8);
  Op op;
  op.opcode = Opcode::ReadPort;
  op.bitwidth = 8;
  op.port = out;
  fn.addOp(std::move(op));
  b.ret();
  EXPECT_FALSE(verify(fn).empty());
}

TEST(Verifier, CleanFunctionPasses) {
  Function fn("f");
  Builder b(fn);
  const auto in = b.inPort("i", 16);
  const auto out = b.outPort("o", 16);
  const auto arr = b.array("mem", 32, 16);
  const OpId x = b.readPort(in);
  const OpId idx = b.constant(3, 8);
  b.store(arr, idx, x);
  const OpId y = b.load(arr, idx);
  b.writePort(out, y);
  b.ret();
  EXPECT_TRUE(verify(fn).empty());
}

// --- module ------------------------------------------------------------

TEST(Module, DuplicateFunctionRejected) {
  Module mod("m");
  auto mk = [] {
    auto fn = std::make_unique<Function>("dup");
    Builder b(*fn);
    b.ret();
    return fn;
  };
  mod.addFunction(mk());
  EXPECT_THROW(mod.addFunction(mk()), hcp::Error);
}

TEST(Module, UnknownCalleeReported) {
  Module mod("m");
  auto fn = std::make_unique<Function>("top");
  Builder b(*fn);
  const OpId c = b.constant(1, 8);
  b.call("ghost", {c}, 8);
  b.ret();
  mod.addFunction(std::move(fn));
  mod.setTop("top");
  const auto errors = verify(mod);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("ghost"), std::string::npos);
}

TEST(Module, RecursionDetected) {
  Module mod("m");
  auto fn = std::make_unique<Function>("rec");
  Builder b(*fn);
  const auto in = b.inPort("x", 8);
  const OpId x = b.readPort(in);
  b.call("rec", {x}, 8);
  b.ret();
  mod.addFunction(std::move(fn));
  mod.setTop("rec");
  bool sawRecursion = false;
  for (const auto& e : verify(mod))
    if (e.find("recursive") != std::string::npos) sawRecursion = true;
  EXPECT_TRUE(sawRecursion);
}

TEST(Module, TopMustExist) {
  Module mod("m");
  EXPECT_THROW(mod.setTop("none"), hcp::Error);
}

}  // namespace
}  // namespace hcp::ir
