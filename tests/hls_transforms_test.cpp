#include <gtest/gtest.h>

#include <map>
#include <set>

#include "hls/transforms.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"

namespace hcp::hls {
namespace {

using ir::Builder;
using ir::Function;
using ir::Module;
using ir::Opcode;
using ir::OpId;

std::unique_ptr<Function> simpleLoopFn(std::uint64_t trip) {
  auto fn = std::make_unique<Function>("f");
  Builder b(*fn);
  const auto in = b.inPort("i", 16);
  const auto out = b.outPort("o", 16);
  const OpId x = b.readPort(in);
  b.beginLoop("L", trip);
  const OpId idx = b.constant(0, 8);
  const OpId y = b.add(x, idx);
  b.endLoop();
  b.writePort(out, y);
  b.ret();
  return fn;
}

TEST(Unroll, ReplicatesBodyOps) {
  auto fn = simpleLoopFn(8);
  const std::size_t before = fn->numOps();
  unrollLoop(*fn, 1, 4);
  // Body = {const, add}; three extra copies.
  EXPECT_EQ(fn->numOps(), before + 3 * 2);
  EXPECT_EQ(fn->loop(1).tripCount, 2u);
  EXPECT_EQ(fn->loop(1).unrollFactor, 4u);
  ir::verifyOrThrow(*fn);
}

TEST(Unroll, FactorClampedToTrip) {
  auto fn = simpleLoopFn(3);
  unrollLoop(*fn, 1, 99);
  EXPECT_EQ(fn->loop(1).tripCount, 1u);
  EXPECT_EQ(fn->loop(1).unrollFactor, 3u);
  ir::verifyOrThrow(*fn);
}

TEST(Unroll, FactorOneIsNoop) {
  auto fn = simpleLoopFn(8);
  const std::size_t before = fn->numOps();
  unrollLoop(*fn, 1, 1);
  EXPECT_EQ(fn->numOps(), before);
}

TEST(Unroll, ReplicasShareOrigin) {
  auto fn = simpleLoopFn(8);
  unrollLoop(*fn, 1, 4);
  // Find the add ops; all must share one originOp (the filter's group key).
  std::map<OpId, int> groups;
  for (OpId id = 0; id < fn->numOps(); ++id)
    if (fn->op(id).opcode == Opcode::Add) ++groups[fn->op(id).originOp];
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->second, 4);
}

TEST(Unroll, InductionConstantsAdvance) {
  auto fn = simpleLoopFn(8);
  unrollLoop(*fn, 1, 4);
  std::set<std::int64_t> values;
  for (OpId id = 0; id < fn->numOps(); ++id)
    if (fn->op(id).opcode == Opcode::Const && fn->op(id).loop == 1)
      values.insert(fn->op(id).constValue);
  // 0, 1, 2, 3 — replicas model i, i+1, ...
  EXPECT_EQ(values.size(), 4u);
  EXPECT_TRUE(values.count(3));
}

TEST(Unroll, NestedLoopsReplicated) {
  auto fn = std::make_unique<Function>("f");
  Builder b(*fn);
  const auto out = b.outPort("o", 8);
  b.beginLoop("outer", 4);
  b.beginLoop("inner", 2);
  const OpId c = b.constant(1, 8);
  b.endLoop();
  b.endLoop();
  b.writePort(out, c);
  b.ret();
  const std::size_t loopsBefore = fn->numLoops();
  unrollLoop(*fn, 1, 2);  // unroll outer
  EXPECT_EQ(fn->numLoops(), loopsBefore + 1);  // a copy of inner
  ir::verifyOrThrow(*fn);
}

TEST(ArrayPartition, DirectivesApplied) {
  auto fn = std::make_unique<Function>("f");
  Builder b(*fn);
  const auto arr = b.array("buf", 64, 16);
  const auto arr2 = b.array("other", 64, 16);
  b.ret();
  DirectiveSet dirs;
  dirs.partition("f", "buf", 8);
  dirs.partitionComplete("f", "other");
  applyArrayPartition(*fn, dirs);
  EXPECT_EQ(fn->array(arr).banks, 8u);
  EXPECT_EQ(fn->array(arr2).banks, 64u);
}

TEST(Pipeline, MarksLoop) {
  auto fn = simpleLoopFn(8);
  DirectiveSet dirs;
  dirs.pipeline("f", "L", 2);
  applyPipeline(*fn, dirs);
  EXPECT_TRUE(fn->loop(1).pipelined);
  EXPECT_EQ(fn->loop(1).initiationInterval, 2u);
}

// --- inlining ------------------------------------------------------------

Module makeCallerCallee() {
  Module mod("m");
  {
    auto callee = std::make_unique<Function>("leaf");
    Builder b(*callee);
    const auto a = b.inPort("a", 16);
    const auto bPort = b.inPort("b", 16);
    const auto out = b.outPort("r", 16);
    const OpId sum = b.add(b.readPort(a), b.readPort(bPort));
    b.writePort(out, sum);
    b.ret();
    mod.addFunction(std::move(callee));
  }
  {
    auto top = std::make_unique<Function>("top");
    Builder b(*top);
    const auto in = b.inPort("x", 16);
    const auto out = b.outPort("y", 16);
    const OpId x = b.readPort(in);
    const OpId r1 = b.call("leaf", {x, x}, 16);
    const OpId r2 = b.call("leaf", {r1, x}, 16);
    b.writePort(out, r2);
    b.ret();
    mod.addFunction(std::move(top));
  }
  mod.setTop("top");
  return mod;
}

TEST(Inline, SplicesBodyPerCallSite) {
  Module mod = makeCallerCallee();
  DirectiveSet dirs;
  dirs.inlineFunction("leaf");
  applyInline(mod, dirs);
  ir::verifyOrThrow(mod);
  const ir::Function& top = mod.top();
  std::size_t adds = 0, calls = 0;
  for (OpId id = 0; id < top.numOps(); ++id) {
    if (top.op(id).opcode == Opcode::Add) ++adds;
    if (top.op(id).opcode == Opcode::Call) ++calls;
  }
  EXPECT_EQ(adds, 2u);   // one per call site
  EXPECT_EQ(calls, 0u);  // all inlined
}

TEST(Inline, PreservesDataflow) {
  Module mod = makeCallerCallee();
  DirectiveSet dirs;
  dirs.inlineFunction("leaf");
  applyInline(mod, dirs);
  // The second add must (transitively) consume the first one.
  const ir::Function& top = mod.top();
  std::vector<OpId> adds;
  for (OpId id = 0; id < top.numOps(); ++id)
    if (top.op(id).opcode == Opcode::Add) adds.push_back(id);
  ASSERT_EQ(adds.size(), 2u);
  // Walk the alias chain backwards from the later add.
  bool connected = false;
  std::vector<OpId> stack{adds[1]};
  std::set<OpId> seen;
  while (!stack.empty()) {
    const OpId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    if (cur == adds[0]) {
      connected = true;
      break;
    }
    for (const auto& use : top.op(cur).operands) stack.push_back(use.producer);
  }
  EXPECT_TRUE(connected);
}

TEST(Inline, TagsOpsWithOrigin) {
  Module mod = makeCallerCallee();
  DirectiveSet dirs;
  dirs.inlineFunction("leaf");
  applyInline(mod, dirs);
  const ir::Function& top = mod.top();
  bool tagged = false;
  for (OpId id = 0; id < top.numOps(); ++id)
    if (top.op(id).name.rfind("leaf_i", 0) == 0) tagged = true;
  EXPECT_TRUE(tagged);
}

TEST(Inline, NestedInlineBottomUp) {
  Module mod("m");
  {
    auto leaf = std::make_unique<Function>("leaf");
    Builder b(*leaf);
    const auto a = b.inPort("a", 8);
    const auto out = b.outPort("r", 8);
    b.writePort(out, b.neg(b.readPort(a)));
    b.ret();
    mod.addFunction(std::move(leaf));
  }
  {
    auto mid = std::make_unique<Function>("mid");
    Builder b(*mid);
    const auto a = b.inPort("a", 8);
    const auto out = b.outPort("r", 8);
    b.writePort(out, b.call("leaf", {b.readPort(a)}, 8));
    b.ret();
    mod.addFunction(std::move(mid));
  }
  {
    auto top = std::make_unique<Function>("top");
    Builder b(*top);
    const auto a = b.inPort("a", 8);
    const auto out = b.outPort("r", 8);
    b.writePort(out, b.call("mid", {b.readPort(a)}, 8));
    b.ret();
    mod.addFunction(std::move(top));
  }
  mod.setTop("top");
  DirectiveSet dirs;
  dirs.inlineFunction("leaf").inlineFunction("mid");
  applyInline(mod, dirs);
  ir::verifyOrThrow(mod);
  for (ir::OpId id = 0; id < mod.top().numOps(); ++id)
    EXPECT_NE(mod.top().op(id).opcode, Opcode::Call);
}

TEST(Inline, CalleeArraysCopiedPerSite) {
  Module mod("m");
  {
    auto leaf = std::make_unique<Function>("leaf");
    Builder b(*leaf);
    const auto a = b.inPort("a", 8);
    const auto out = b.outPort("r", 8);
    const auto arr = b.array("scratch", 16, 8);
    const OpId x = b.readPort(a);
    b.store(arr, b.constant(0, 4), x);
    b.writePort(out, b.load(arr, b.constant(0, 4)));
    b.ret();
    mod.addFunction(std::move(leaf));
  }
  {
    auto top = std::make_unique<Function>("top");
    Builder b(*top);
    const auto a = b.inPort("a", 8);
    const auto out = b.outPort("r", 8);
    const OpId x = b.readPort(a);
    const OpId r1 = b.call("leaf", {x}, 8);
    const OpId r2 = b.call("leaf", {r1}, 8);
    b.writePort(out, r2);
    b.ret();
    mod.addFunction(std::move(top));
  }
  mod.setTop("top");
  DirectiveSet dirs;
  dirs.inlineFunction("leaf");
  applyInline(mod, dirs);
  EXPECT_EQ(mod.top().numArrays(), 2u);  // one copy per call site
  ir::verifyOrThrow(mod);
}

}  // namespace
}  // namespace hcp::hls
