// A generator of random-but-valid dataflow designs, shared by the fuzz
// pipeline battery and the golden flow digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_design.hpp"
#include "ir/builder.hpp"
#include "support/rng.hpp"

namespace hcp::test {

/// Generates a random valid dataflow function: a few loops, arrays, a mix of
/// opcodes, everything wired to earlier values.
inline apps::AppDesign randomDesign(std::uint64_t seed) {
  Rng rng(seed);
  apps::AppDesign design;
  design.name = "fuzz_" + std::to_string(seed);
  design.module = std::make_unique<ir::Module>(design.name);

  auto fn = std::make_unique<ir::Function>("fuzz_top");
  ir::Builder b(*fn);
  const auto in = b.inPort("in", 16);
  const auto out = b.outPort("out", 32);
  const auto arr = b.array("mem", 16 + rng.uniformInt(48), 16);

  std::vector<ir::OpId> values;
  values.push_back(b.readPort(in));

  const int numLoops = 1 + static_cast<int>(rng.uniformInt(3));
  for (int l = 0; l < numLoops; ++l) {
    b.atLine(100 + l * 10);
    b.beginLoop("loop" + std::to_string(l), 4 + rng.uniformInt(60));
    const int bodyOps = 3 + static_cast<int>(rng.uniformInt(12));
    for (int i = 0; i < bodyOps; ++i) {
      const ir::OpId a = values[rng.uniformInt(values.size())];
      const ir::OpId c = values[rng.uniformInt(values.size())];
      ir::OpId v = ir::kInvalidOp;
      switch (rng.uniformInt(8)) {
        case 0: v = b.add(a, c); break;
        case 1: v = b.mul(b.trunc(a, std::min<std::uint16_t>(
                                         9, fn->op(a).bitwidth)),
                          b.constant(3, 4));
                break;
        case 2: v = b.xor_(a, c); break;
        case 3: v = b.select(b.icmpGt(a, c), a, c); break;
        case 4: v = b.min(a, c); break;
        case 5: {
          const auto idx = b.constant(
              static_cast<std::int64_t>(rng.uniformInt(16)), 8);
          v = b.load(arr, idx);
          break;
        }
        case 6: {
          const auto idx = b.constant(
              static_cast<std::int64_t>(rng.uniformInt(16)), 8);
          b.store(arr, idx, a);
          v = a;
          break;
        }
        default: v = b.sub(a, c); break;
      }
      if (fn->op(v).bitwidth > 32) v = b.trunc(v, 16);
      values.push_back(v);
    }
    b.endLoop();
  }
  b.writePort(out, b.zext(values.back(), 32));
  b.ret();
  design.module->addFunction(std::move(fn));
  design.module->setTop("fuzz_top");

  // Random directives on the generated loops.
  for (int l = 0; l < numLoops; ++l) {
    const std::string loop = "loop" + std::to_string(l);
    if (rng.bernoulli(0.5))
      design.directives.unroll("fuzz_top", loop,
                               2 + static_cast<std::uint32_t>(
                                       rng.uniformInt(6)));
    if (rng.bernoulli(0.4)) design.directives.pipeline("fuzz_top", loop, 1);
  }
  if (rng.bernoulli(0.5))
    design.directives.partition("fuzz_top", "mem",
                                1u << rng.uniformInt(4));
  return design;
}

}  // namespace hcp::test
