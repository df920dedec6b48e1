// The congestion-map predictor's tests:
//
//   1. Hotspot metrics: topFractionIndices / hotspotIoU corner cases —
//      deterministic tie-breaks, the at-least-one floor, empty inputs.
//   2. The hcp-map artifact: pinned bytes and summaries of a small map, and
//      a checked-in golden map (results/golden_map_spam_filter.txt) that
//      pins the routed ground truth of a fixed-seed flow, byte for byte.
//   3. The predicted map: the RUDY estimate of spam_filter's placement,
//      pinned by digest, reached both through runFlow's placement and
//      through the placement-only core::placeAndExtract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/flow.hpp"
#include "core/map_predictor.hpp"
#include "fpga/device.hpp"
#include "fpga/router.hpp"
#include "fpga/serialize.hpp"
#include "ml/metrics.hpp"
#include "support/envelope.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

using hcp::test::slurpFile;

// --- 1. hotspot metrics ----------------------------------------------------

TEST(HotspotMetrics, TopFractionPicksTheLargestValues) {
  const std::vector<double> values = {5.0, 1.0, 9.0, 7.0};
  EXPECT_EQ(topFractionIndices(values, 0.5),
            (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(topFractionIndices(values, 1.0),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(HotspotMetrics, TiesBreakTowardTheLowerIndex) {
  const std::vector<double> flat = {3.0, 3.0, 3.0, 3.0};
  EXPECT_EQ(topFractionIndices(flat, 0.5), (std::vector<std::size_t>{0, 1}));
}

TEST(HotspotMetrics, NonEmptyInputAlwaysYieldsAtLeastOneHotspot) {
  const std::vector<double> values = {1.0, 4.0, 2.0};
  EXPECT_EQ(topFractionIndices(values, 0.01),
            (std::vector<std::size_t>{1}));
  EXPECT_TRUE(topFractionIndices({}, 0.5).empty());
}

TEST(HotspotMetrics, IoUExtremes) {
  const std::vector<double> a = {9.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(hotspotIoU(a, a, 0.25), 1.0);
  const std::vector<double> b = {1.0, 2.0, 3.0, 9.0};
  EXPECT_DOUBLE_EQ(hotspotIoU(a, b, 0.25), 0.0);  // disjoint top-1 sets
  EXPECT_DOUBLE_EQ(hotspotIoU({}, {}), 1.0);      // nothing to miss
}

TEST(HotspotMetrics, PartialOverlapScoresTheJaccardRatio) {
  // Top-half sets {0,1} vs {1,2}: intersection 1, union 3.
  const std::vector<double> actual = {9.0, 8.0, 1.0, 0.0};
  const std::vector<double> predicted = {1.0, 9.0, 8.0, 0.0};
  EXPECT_DOUBLE_EQ(hotspotIoU(actual, predicted, 0.5), 1.0 / 3.0);
}

// --- 2. the hcp-map artifact -----------------------------------------------

/// A 3x2 map at capacity 100, so each tile's utilization is its demand.
fpga::CongestionMap smallMap() {
  const double v[] = {10.5, 20.25, 110.0, 0.0, 55.5, 76.0};
  const double h[] = {1.0, 2.0, 3.0, 4.0, 5.0, 130.0};
  fpga::CongestionMap map(3, 2, 100.0, 100.0);
  for (std::uint32_t i = 0; i < 6; ++i) {
    map.addVertical(i % 3, i / 3, v[i]);
    map.addHorizontal(i % 3, i / 3, h[i]);
  }
  return map;
}

std::string mapBytes(const fpga::CongestionMap& map) {
  std::ostringstream os;
  fpga::writeMapArtifact(os, map);
  return os.str();
}

// The hcp-map bytes: a version line, the grid shape, then each channel as a
// length-prefixed row-major vector in %.17g.
TEST(MapPredictionIo, WritesPinnedBytes) {
  EXPECT_EQ(mapBytes(smallMap()),
            "hcp-map 1\n3 2\n"
            "vutil 6 10.5 20.25 110 0 55.5 76\n"
            "hutil 6 1 2 3 4 5 130\n");
}

TEST(MapPredictionIo, SummariesReadTheGrid) {
  const fpga::CongestionMap map = smallMap();
  EXPECT_DOUBLE_EQ(map.maxVUtil(), 110.0);
  EXPECT_DOUBLE_EQ(map.maxHUtil(), 130.0);
  EXPECT_EQ(map.tilesOver(100.0), 2u);
  // Rows print top-down: y=1 first.
  EXPECT_EQ(map.toAscii(true), ".+#\n..@\n");
}

// The routed ground truth of one fixed-seed flow, serialized through the
// map format, must match results/golden_map_spam_filter.txt byte for byte.
// Any drift means either the physical pipeline or the serializer changed
// behaviour. Regenerate deliberately with HCP_REGEN_GOLDEN=1.
TEST(GoldenMap, RoutedSpamFilterMapMatchesCheckedInGolden) {
  const auto device = fpga::Device::xc7z020like();
  const core::FlowResult flow =
      core::runFlow(apps::makeDesign("spam_filter"), device, {});
  const fpga::CongestionMap& truth = flow.impl.routing.map;

  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_map_spam_filter.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr) {
    fpga::saveMapArtifact(truth, goldenPath);
    GTEST_SKIP() << "golden map regenerated at " << goldenPath;
  }
  EXPECT_EQ(mapBytes(truth), slurpFile(goldenPath))
      << "routed map drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";
}

// --- 3. the predicted map ----------------------------------------------------

// RUDY (fpga::estimateRudy) of spam_filter's seed-42 placement, the one
// runFlow routes, pinned as the FNV-1a digest of its hcp-map bytes. The
// placement-only predict path must estimate that same placement.
TEST(GoldenMap, RudyPredictionMatchesPinnedDigest) {
  const auto device = fpga::Device::xc7z020like();
  const core::FlowResult flow =
      core::runFlow(apps::makeDesign("spam_filter"), device, {});
  const fpga::CongestionMap rudy =
      fpga::estimateRudy(flow.impl.packing, flow.impl.placement, device);
  EXPECT_GT(rudy.tilesOver(0.0), 0u) << "a blank map pins nothing";
  EXPECT_EQ(support::Fnv1a().bytes(mapBytes(rudy)).hex(), "a455bc008668d37b");
  EXPECT_EQ(mapBytes(core::placeAndExtract(apps::makeDesign("spam_filter"),
                                           device)),
            mapBytes(rudy));
}

}  // namespace
}  // namespace hcp::ml
