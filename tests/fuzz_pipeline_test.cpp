// Randomized property tests: generate random-but-valid IR designs and push
// them through the entire pipeline (passes -> directives -> schedule -> bind
// -> RTL -> pack -> place -> route -> STA -> back-trace -> features, plus
// the RUDY estimate), asserting structural invariants at every stage.
// Catches interactions no hand-written case covers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "features/extractor.hpp"
#include "fpga/router.hpp"
#include "ir/verifier.hpp"
#include "random_design.hpp"

namespace hcp {
namespace {

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, FullFlowInvariantsHold) {
  const auto device = fpga::Device::xc7z020like();
  auto design = test::randomDesign(GetParam());
  ASSERT_TRUE(ir::verify(*design.module).empty());

  const auto flow = core::runFlow(std::move(design), device, {});

  // Schedule causality.
  const auto& fn = flow.design.topFunction();
  const auto& sched = flow.design.top().schedule;
  for (ir::OpId id = 0; id < fn.numOps(); ++id) {
    for (const auto& use : fn.op(id).operands) {
      const auto& p = sched.ops[use.producer];
      if (p.latency > 0)
        ASSERT_GT(sched.ops[id].startStep, p.endStep);
      else
        ASSERT_GE(sched.ops[id].startStep, p.startStep);
    }
  }

  // Netlist validity and placement legality.
  ASSERT_TRUE(flow.rtl.netlist.validate().empty());
  for (std::size_t c = 0; c < flow.impl.packing.clusters.size(); ++c) {
    const auto t = flow.impl.placement.tileOfCluster[c];
    ASSERT_LT(t.x, device.width());
    ASSERT_LT(t.y, device.height());
  }

  // Routing demand is non-negative and finite everywhere.
  const auto& map = flow.impl.routing.map;
  for (std::uint32_t y = 0; y < map.height(); ++y)
    for (std::uint32_t x = 0; x < map.width(); ++x) {
      ASSERT_GE(map.vDemand(x, y), -1e-9);
      ASSERT_TRUE(std::isfinite(map.hDemand(x, y)));
    }

  // Timing is finite and WNS consistent with the critical path.
  ASSERT_TRUE(std::isfinite(flow.impl.timing.criticalPathNs));
  ASSERT_GT(flow.impl.timing.maxFrequencyMhz, 0.0);

  // Every sample resolves and features are finite.
  features::FeatureExtractor extractor(flow.design, {});
  for (const auto& s : flow.traced.samples) {
    ASSERT_LT(s.op, fn.numOps());
    ASSERT_GE(s.vCongestion, 0.0);
    const auto x = extractor.extract(s.functionIndex, s.op);
    ASSERT_EQ(x.size(), features::kNumFeatures);
    for (double v : x) ASSERT_TRUE(std::isfinite(v));
  }

  // The RUDY estimate predict-map returns covers the device, finite and
  // non-negative everywhere.
  const fpga::CongestionMap rudy = fpga::estimateRudy(
      flow.impl.packing, flow.impl.placement, device);
  ASSERT_EQ(rudy.width(), device.width());
  ASSERT_EQ(rudy.height(), device.height());
  for (std::uint32_t y = 0; y < rudy.height(); ++y)
    for (std::uint32_t x = 0; x < rudy.width(); ++x)
      for (const double v : {rudy.vUtil(x, y), rudy.hUtil(x, y)}) {
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GE(v, 0.0);
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace hcp
