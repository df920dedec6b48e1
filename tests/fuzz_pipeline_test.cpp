// Randomized property tests: generate random-but-valid IR designs and push
// them through the entire pipeline (passes -> directives -> schedule -> bind
// -> RTL -> pack -> place -> route -> STA -> back-trace -> features),
// asserting structural invariants at every stage. Catches interactions no
// hand-written case covers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "features/extractor.hpp"
#include "features/grid_features.hpp"
#include "fpga/packer.hpp"
#include "fpga/placer.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"
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

  // Grid features extract from the same placement: one full-size channel
  // per contract entry, everything finite and non-negative.
  const features::GridFeatures grid = features::extractGridFeatures(
      flow.impl.packing, flow.impl.placement, device);
  ASSERT_EQ(grid.width, device.width());
  ASSERT_EQ(grid.height, device.height());
  for (const std::vector<double>* channel : grid.channels()) {
    ASSERT_EQ(channel->size(), grid.numTiles());
    for (double v : *channel) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// --- degenerate grid-feature inputs ----------------------------------------
//
// fpga::Device enforces a minimum 8x8 fabric, so the degenerate geometries
// below go straight through features::GridGeometry — the extractor must
// handle them without crashing (the empty-map contract of grid_features.hpp).

features::GridGeometry tinyGeometry(std::uint32_t w, std::uint32_t h) {
  features::GridGeometry g;
  g.width = w;
  g.height = h;
  g.vTracks = 2.0;
  g.hTracks = 3.0;
  return g;
}

TEST(GridFeatureDegenerate, EmptyGeometryYieldsEmptyChannels) {
  const auto grid = features::extractGridFeatures(
      {}, {}, tinyGeometry(0, 0));
  EXPECT_EQ(grid.numTiles(), 0u);
  for (const std::vector<double>* channel : grid.channels())
    EXPECT_TRUE(channel->empty());
  // Zero-width-nonzero-height (and vice versa) are equally empty.
  EXPECT_EQ(features::extractGridFeatures({}, {}, tinyGeometry(0, 5))
                .numTiles(),
            0u);
  EXPECT_EQ(features::extractGridFeatures({}, {}, tinyGeometry(5, 0))
                .numTiles(),
            0u);
}

TEST(GridFeatureDegenerate, SingleTileGridWithOneNet) {
  fpga::Packing packing;
  packing.clusters.resize(2);
  fpga::ClusterNet net;
  net.driver = 0;
  net.sinks = {1};
  net.width = 4;
  packing.nets.push_back(net);
  fpga::Placement placement;
  placement.tileOfCluster = {{0, 0}, {0, 0}};

  const auto grid = features::extractGridFeatures(
      packing, placement, tinyGeometry(1, 1));
  ASSERT_EQ(grid.numTiles(), 1u);
  EXPECT_DOUBLE_EQ(grid.pinDensity[0], 8.0);  // driver + sink, width 4
  EXPECT_DOUBLE_EQ(grid.netCrossings[0], 1.0);
  EXPECT_DOUBLE_EQ(grid.rudyV[0], 4.0);  // whole net in a 1x1 box
  EXPECT_DOUBLE_EQ(grid.rudyH[0], 4.0);
  EXPECT_DOUBLE_EQ(grid.capV[0], 2.0);
  EXPECT_DOUBLE_EQ(grid.capH[0], 3.0);
  EXPECT_DOUBLE_EQ(grid.regionDist[0], 0.0);
}

TEST(GridFeatureDegenerate, ZeroNetPackingYieldsAllZeroDemand) {
  fpga::Packing packing;
  packing.clusters.resize(3);  // placed clusters, no nets between them
  fpga::Placement placement;
  placement.tileOfCluster = {{0, 0}, {1, 1}, {2, 0}};

  const auto grid = features::extractGridFeatures(
      packing, placement, tinyGeometry(3, 2));
  ASSERT_EQ(grid.numTiles(), 6u);
  for (const auto* channel :
       {&grid.pinDensity, &grid.netCrossings, &grid.rudyV, &grid.rudyH})
    for (double v : *channel) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : grid.capV) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(GridFeatureDegenerate, SingleTileRegionsMakeEveryTileASeam) {
  // regionSize 0 is treated as 1; both put every tile on a region boundary.
  for (const std::uint32_t regionSize : {0u, 1u}) {
    features::GridFeatureConfig config;
    config.regionSize = regionSize;
    const auto grid = features::extractGridFeatures(
        {}, {}, tinyGeometry(4, 3), config);
    for (double v : grid.regionDist) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(GridFeatureDegenerate, OutOfGridPlacementIsRejected) {
  fpga::Packing packing;
  packing.clusters.resize(1);
  fpga::ClusterNet net;
  net.driver = 0;
  packing.nets.push_back(net);
  fpga::Placement placement;
  placement.tileOfCluster = {{5, 5}};
  EXPECT_THROW(features::extractGridFeatures(packing, placement,
                                             tinyGeometry(2, 2)),
               hcp::Error);
}

}  // namespace
}  // namespace hcp
