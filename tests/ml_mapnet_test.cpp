// The congestion-map model test battery (tentpole of the map-predictor PR):
//
//   1. Hotspot metrics: topFractionIndices / hotspotIoU corner cases —
//      deterministic tie-breaks, the at-least-one floor, empty inputs.
//   2. Serialization: MapPrediction and trained MapNet models round-trip
//      byte-identically through the text format; a checked-in golden map
//      (results/golden_map_spam_filter.txt) pins the routed ground truth of
//      a fixed-seed flow, byte for byte.
//   3. Determinism: the same samples + seed train byte-identical model
//      files — and produce byte-identical predicted maps and identical
//      MAE / hotspot-IoU numbers — at 1, 2 and 4 threads, for both
//      topologies.
//   4. Corruption battery: truncated tensor blocks, NaN weights, scaler
//      stds that are not positive, grid-shape mismatches, version/topology
//      skew and trailing garbage are all rejected with hcp::Error naming
//      the file — never a crash, never a silently misloaded model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/flow.hpp"
#include "core/map_predictor.hpp"
#include "features/grid_features.hpp"
#include "fpga/device.hpp"
#include "ml/mapnet.hpp"
#include "ml/metrics.hpp"
#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

using hcp::test::TempFile;
using hcp::test::slurpFile;
using hcp::test::writeRaw;

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

// --- 2. MapPrediction serialization ---------------------------------------

MapPrediction smallMap() {
  MapPrediction map;
  map.width = 3;
  map.height = 2;
  map.vUtil = {10.5, 20.25, 110.0, 0.0, 55.5, 76.0};
  map.hUtil = {1.0, 2.0, 3.0, 4.0, 5.0, 130.0};
  return map;
}

std::string mapBytes(const MapPrediction& map) {
  std::ostringstream os;
  saveMapPrediction(map, os);
  return os.str();
}

TEST(MapPredictionIo, RoundTripIsByteIdentical) {
  const std::string once = mapBytes(smallMap());
  std::istringstream is(once);
  const MapPrediction back = loadMapPrediction(is);
  EXPECT_EQ(mapBytes(back), once);
  EXPECT_EQ(back.width, 3u);
  EXPECT_EQ(back.height, 2u);
  EXPECT_DOUBLE_EQ(back.maxVUtil(), 110.0);
  EXPECT_DOUBLE_EQ(back.maxHUtil(), 130.0);
  EXPECT_EQ(back.tilesOver(100.0), 2u);
}

TEST(MapPredictionIo, AsciiAndCsvRenderTheGrid) {
  const MapPrediction map = smallMap();
  // Rows print top-down: y=1 first.
  EXPECT_EQ(map.toAscii(true), ".+#\n..@\n");
  const std::string csv = map.toCsv();
  EXPECT_EQ(csv.substr(0, 18), "x,y,v_util,h_util\n");
  EXPECT_NE(csv.find("2,1,76,130"), std::string::npos);
}

TEST(MapPredictionIo, TrailingGarbageIsRejected) {
  std::istringstream is(mapBytes(smallMap()) + "leftover");
  EXPECT_THROW(loadMapPrediction(is), hcp::Error);
}

TEST(MapPredictionIo, FileErrorsNameThePath) {
  TempFile file("mapnet_bad_shape.map",
                "hcp-map 1\n3 2\nvutil 2 1 2\nhutil 2 3 4\n");
  try {
    loadMapPredictionFromFile(file.path());
    FAIL() << "grid-shape mismatch must not load";
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shape mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
  EXPECT_THROW(loadMapPredictionFromFile("/nonexistent/m.map"), hcp::Error);
}

TEST(MapPredictionIo, NanTilesAreRejected) {
  TempFile file("mapnet_nan_tile.map",
                "hcp-map 1\n2 1\nvutil 2 nan 2\nhutil 2 3 4\n");
  EXPECT_THROW(loadMapPredictionFromFile(file.path()), hcp::Error);
}

// --- training fixtures -----------------------------------------------------

/// Small synthetic grids whose targets are a fixed smooth function of the
/// channels — enough structure for every topology to fit, cheap enough to
/// train in milliseconds.
std::vector<MapSample> syntheticMaps(std::size_t count, std::uint32_t width,
                                     std::uint32_t height,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MapSample> data;
  for (std::size_t s = 0; s < count; ++s) {
    MapSample sample;
    sample.grid.width = width;
    sample.grid.height = height;
    const std::size_t tiles = sample.grid.numTiles();
    sample.grid.channels.assign(features::GridFeatures::kNumChannels, {});
    for (auto& channel : sample.grid.channels) {
      channel.resize(tiles);
      for (double& v : channel) v = rng.uniformReal(0.0, 4.0);
    }
    sample.vTarget.resize(tiles);
    sample.hTarget.resize(tiles);
    for (std::size_t i = 0; i < tiles; ++i) {
      sample.vTarget[i] = 20.0 * sample.grid.channels[0][i] +
                          5.0 * sample.grid.channels[2][i];
      sample.hTarget[i] = 12.0 * sample.grid.channels[1][i] +
                          7.0 * sample.grid.channels[3][i];
    }
    data.push_back(std::move(sample));
  }
  return data;
}

MapNetConfig smallConfig(MapNetConfig::Topology topology) {
  MapNetConfig config;
  config.topology = topology;
  config.epochs = 4;
  config.seed = 7;
  return config;
}

std::string modelBytes(const MapNet& model) {
  std::ostringstream os;
  saveMapModel(model, os);
  return os.str();
}

class MapNetTopologies
    : public ::testing::TestWithParam<MapNetConfig::Topology> {};

// --- 3. determinism --------------------------------------------------------

TEST_P(MapNetTopologies, ModelAndPredictionAreThreadCountInvariant) {
  const auto data = syntheticMaps(3, 10, 8, 21);
  std::string refModel, refMap;
  double refMae = 0.0, refIoU = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    MapNet model(smallConfig(GetParam()));
    model.fit(data);
    const MapPrediction predicted = model.predict(data[0].grid);
    const double mae = meanAbsoluteError(data[0].vTarget, predicted.vUtil);
    const double iou = hotspotIoU(data[0].vTarget, predicted.vUtil);
    if (threads == 1) {
      refModel = modelBytes(model);
      refMap = mapBytes(predicted);
      refMae = mae;
      refIoU = iou;
      continue;
    }
    EXPECT_EQ(modelBytes(model), refModel) << threads << " threads";
    EXPECT_EQ(mapBytes(predicted), refMap) << threads << " threads";
    EXPECT_EQ(mae, refMae) << threads << " threads";
    EXPECT_EQ(iou, refIoU) << threads << " threads";
  }
}

TEST_P(MapNetTopologies, ModelRoundTripsByteIdentically) {
  MapNet model(smallConfig(GetParam()));
  model.fit(syntheticMaps(2, 8, 6, 5));
  const std::string once = modelBytes(model);
  std::istringstream is(once);
  const MapNet back = loadMapModel(is);
  EXPECT_EQ(modelBytes(back), once);
  EXPECT_EQ(back.config().topology, GetParam());
  EXPECT_EQ(back.epochsRun(), model.epochsRun());

  // The restored model predicts bit-identically.
  const auto probe = syntheticMaps(1, 8, 6, 99);
  EXPECT_EQ(mapBytes(back.predict(probe[0].grid)),
            mapBytes(model.predict(probe[0].grid)));
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, MapNetTopologies,
    ::testing::Values(MapNetConfig::Topology::kTileLinear,
                      MapNetConfig::Topology::kConv),
    [](const auto& info) { return std::string(topologyName(info.param)); });

// --- 4. model corruption battery ------------------------------------------

class MapModelCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    MapNet model(smallConfig(MapNetConfig::Topology::kConv));
    model.fit(syntheticMaps(2, 8, 6, 5));
    good_ = modelBytes(model);
  }

  /// Expects `bytes` to be rejected with an hcp::Error naming the file and
  /// saying `reason`.
  void expectRejected(const std::string& tag, const std::string& bytes,
                      const std::string& reason = "") {
    TempFile file(hcp::test::uniqueStem("mapmodel", tag) + ".hcp", bytes);
    try {
      loadMapModelFromFile(file.path());
      FAIL() << tag << ": corrupted model must not load";
    } catch (const hcp::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file.path()), std::string::npos)
          << tag << ": error must name the file: " << what;
      EXPECT_NE(what.find(reason), std::string::npos)
          << tag << ": error must say '" << reason << "': " << what;
    }
  }

  /// good_ with the `index`-th value of the line starting `key ` (values
  /// counted from 0 after the key) replaced by `value`.
  std::string withValue(const std::string& key, std::size_t index,
                        const std::string& value) const {
    std::size_t at = good_.find("\n" + key + " ");
    if (at == std::string::npos) {
      ADD_FAILURE() << "no '" << key << "' line in the model";
      return good_;
    }
    at += key.size() + 2;
    for (std::size_t i = 0; i < index; ++i) at = good_.find(' ', at) + 1;
    const std::size_t end = good_.find_first_of(" \n", at);
    std::string bad = good_;
    bad.replace(at, end - at, value);
    return bad;
  }

  std::string good_;
};

TEST_F(MapModelCorruption, GoodBytesLoad) {
  TempFile file("mapmodel_good.hcp", good_);
  const MapNet model = loadMapModelFromFile(file.path());
  EXPECT_EQ(model.config().topology, MapNetConfig::Topology::kConv);
}

TEST_F(MapModelCorruption, TruncatedTensorBlock) {
  // Cut mid-way through the first conv tensor's values.
  const auto w1 = good_.find("\nw1 ");
  ASSERT_NE(w1, std::string::npos);
  expectRejected("truncated", good_.substr(0, w1 + 20));
}

TEST_F(MapModelCorruption, NanWeight) {
  // The first weight value ("w1 <count> <v0> ...") becomes nan.
  expectRejected("nan", withValue("w1", 1, "nan"));
}

// A zero feature std used to load and then divide that channel into inf in
// every predicted tile; a negative target std used to load and mirror the
// map around its mean.
TEST_F(MapModelCorruption, StdNotPositive) {
  // "scaler <n> <means...> <n> <stds...>": the first std follows n means.
  const std::size_t channels = features::GridFeatures::kNumChannels;
  expectRejected("zero_feature_std", withValue("scaler", channels + 2, "0"),
                 "feature std 0 is 0, must be positive");
  // "targets <v mean> <v std> <h mean> <h std>".
  expectRejected("negative_v_std", withValue("targets", 1, "-1.5"),
                 "must be positive");
  expectRejected("zero_h_std", withValue("targets", 3, "0"),
                 "must be positive");
}

TEST_F(MapModelCorruption, WrongGridShape) {
  // Conv tensors under a tilelinear header: w1 holds H*C*9 values, not 2*C.
  std::string bad = good_;
  bad.replace(0, bad.find('\n'), "hcp-mapmodel tilelinear 2");
  expectRejected("shape", bad, "tensor shape mismatch");
}

TEST_F(MapModelCorruption, UnknownTopologyAndVersionSkew) {
  std::string bad = good_;
  bad.replace(0, bad.find('\n'), "hcp-mapmodel blob 2");
  expectRejected("topology", bad, "unknown map-model topology 'blob'");
  bad = good_;
  bad.replace(0, bad.find('\n'), "hcp-mapmodel conv 9");
  expectRejected("version", bad, "unsupported map-model version 9");
  // Version 1 also carried the hidden width, learning rate, L2 and the
  // tensors of a since-removed topology; it is rejected by its version.
  bad = good_;
  bad.replace(0, bad.find('\n'), "hcp-mapmodel conv 1");
  expectRejected("v1", bad, "unsupported map-model version 1");
  expectRejected("magic", "hcp-model conv 2\n");
}

TEST_F(MapModelCorruption, TrailingGarbage) {
  expectRejected("trailing", good_ + "leftover bytes\n");
}

TEST(MapNetContract, EmptyOrInconsistentTrainingSetsThrow) {
  MapNet model;
  EXPECT_THROW(model.fit({}), hcp::Error);
  auto data = syntheticMaps(2, 6, 5, 3);
  data[1].grid.channels.pop_back();  // inconsistent channel count
  EXPECT_THROW(model.fit(data), hcp::Error);
}

TEST(MapNetContract, PredictRejectsWrongChannelCount) {
  MapNet model(smallConfig(MapNetConfig::Topology::kTileLinear));
  EXPECT_THROW(model.predict(syntheticMaps(1, 6, 5, 3)[0].grid),
               hcp::Error);  // untrained
  model.fit(syntheticMaps(2, 6, 5, 3));
  auto probe = syntheticMaps(1, 6, 5, 9)[0].grid;
  probe.channels.pop_back();
  EXPECT_THROW(model.predict(probe), hcp::Error);
}

// --- golden-map regression -------------------------------------------------

// The routed ground truth of one fixed-seed flow, serialized through the
// map format, must match results/golden_map_spam_filter.txt byte for byte.
// Any drift means either the physical pipeline or the serializer changed
// behaviour. Regenerate deliberately with HCP_REGEN_GOLDEN=1.
TEST(GoldenMap, RoutedSpamFilterMapMatchesCheckedInGolden) {
  const auto device = fpga::Device::xc7z020like();
  const core::FlowResult flow =
      core::runFlow(apps::makeDesign("spam_filter"), device, {});
  const fpga::CongestionMap& routed = flow.impl.routing.map;

  MapPrediction truth;
  truth.width = routed.width();
  truth.height = routed.height();
  truth.vUtil.resize(truth.numTiles());
  truth.hUtil.resize(truth.numTiles());
  for (std::uint32_t y = 0; y < routed.height(); ++y)
    for (std::uint32_t x = 0; x < routed.width(); ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * routed.width() + x;
      truth.vUtil[i] = routed.vUtil(x, y);
      truth.hUtil[i] = routed.hUtil(x, y);
    }

  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_map_spam_filter.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr) {
    saveMapPredictionToFile(truth, goldenPath);
    GTEST_SKIP() << "golden map regenerated at " << goldenPath;
  }
  EXPECT_EQ(mapBytes(truth), slurpFile(goldenPath))
      << "routed map drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";

  // The golden file itself must load as a well-formed map.
  const MapPrediction golden = loadMapPredictionFromFile(goldenPath);
  EXPECT_EQ(golden.width, device.width());
  EXPECT_EQ(golden.height, device.height());
}

// The predicted map of a default-config model trained a few epochs on that
// same routed spam_filter flow, pinned as the FNV-1a digest of its hcp-map
// bytes. Any drift in either topology's arithmetic moves the digest.
std::string predictedSpamFilterMapDigest(MapNetConfig::Topology topology) {
  const auto device = fpga::Device::xc7z020like();
  std::vector<core::FlowResult> flows;
  flows.push_back(core::runFlow(apps::makeDesign("spam_filter"), device, {}));
  const std::vector<MapSample> samples = core::buildMapSamples(
      flows, device, core::gridConfigFor(fpga::PlacerConfig{}));
  MapNetConfig config;
  config.topology = topology;
  config.epochs = 3;
  MapNet model(config);
  model.fit(samples);
  const MapPrediction predicted = model.predict(samples[0].grid);
  EXPECT_GT(predicted.tilesOver(0.0), 0u) << "a blank map pins nothing";
  return support::Fnv1a().bytes(mapBytes(predicted)).hex();
}

TEST(GoldenMap, TileLinearPredictionMatchesPinnedDigest) {
  EXPECT_EQ(predictedSpamFilterMapDigest(MapNetConfig::Topology::kTileLinear),
            "de99907c61679462");
}

TEST(GoldenMap, ConvPredictionMatchesPinnedDigest) {
  EXPECT_EQ(predictedSpamFilterMapDigest(MapNetConfig::Topology::kConv),
            "aa1abe16501a7e83");
}

}  // namespace
}  // namespace hcp::ml
