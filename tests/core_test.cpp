#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/face_detection.hpp"
#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "core/predictor.hpp"
#include "core/resolver.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace hcp::core {
namespace {

/// Shared small flow + dataset (expensive, built once for the suite).
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    device_ = new fpga::Device(fpga::Device::xc7z020like());
    apps::FaceDetectionConfig cfg;
    cfg.windowTrip = 64;
    cfg.fillTrip = 64;
    cfg.stages = 6;
    flow_ = new FlowResult(runFlow(apps::faceDetection(cfg), *device_, {}));
    data_ = new LabeledDataset(buildDataset(*flow_, {}));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete flow_;
    delete device_;
  }

  static fpga::Device* device_;
  static FlowResult* flow_;
  static LabeledDataset* data_;
};

fpga::Device* CoreTest::device_ = nullptr;
FlowResult* CoreTest::flow_ = nullptr;
LabeledDataset* CoreTest::data_ = nullptr;

TEST_F(CoreTest, FlowProducesHeadlineMetrics) {
  EXPECT_GT(flow_->maxFrequencyMhz, 0.0);
  EXPECT_GT(flow_->latencyCycles, 0u);
  EXPECT_GT(flow_->maxVCongestion, 0.0);
  EXPECT_GT(flow_->maxHCongestion, 0.0);
  EXPECT_LT(flow_->wnsNs, flow_->design.constraints.clockPeriodNs);
}

TEST_F(CoreTest, DatasetAlignment) {
  EXPECT_EQ(data_->vertical.size(), data_->horizontal.size());
  EXPECT_EQ(data_->vertical.size(), data_->average.size());
  EXPECT_EQ(data_->vertical.size(), data_->samples.size());
  EXPECT_EQ(data_->vertical.numFeatures(), 302u);
  for (std::size_t i = 0; i < data_->samples.size(); ++i) {
    EXPECT_NEAR(data_->average.target(i),
                0.5 * (data_->vertical.target(i) +
                       data_->horizontal.target(i)),
                1e-9);
  }
}

TEST_F(CoreTest, FilterReducesSamples) {
  DatasetOptions noFilter;
  noFilter.applyMarginalFilter = false;
  const auto unfiltered = buildDataset(*flow_, noFilter);
  EXPECT_GE(unfiltered.vertical.size(), data_->vertical.size());
  EXPECT_EQ(data_->filterStats.total,
            unfiltered.vertical.size());
}

TEST_F(CoreTest, PredictorTrainsAndPredicts) {
  PredictorOptions opts;
  opts.kind = ModelKind::Gbrt;
  opts.gbrt.numEstimators = 40;
  CongestionPredictor predictor(opts);
  EXPECT_FALSE(predictor.trained());
  predictor.train(*data_);
  EXPECT_TRUE(predictor.trained());

  features::FeatureExtractor extractor(flow_->design, {});
  const auto& sample = data_->samples.front();
  const OpPrediction p =
      predictor.predictOp(extractor, sample.functionIndex, sample.op);
  EXPECT_TRUE(std::isfinite(p.vertical));
  EXPECT_TRUE(std::isfinite(p.horizontal));
  EXPECT_TRUE(std::isfinite(p.average));
  // Predictions live in a plausible congestion range.
  EXPECT_GT(p.average, 0.0);
  EXPECT_LT(p.average, 400.0);
}

TEST_F(CoreTest, PredictionsTrackLabelsOnTrainingData) {
  PredictorOptions opts;
  opts.gbrt.numEstimators = 80;
  CongestionPredictor predictor(opts);
  predictor.train(*data_);
  features::FeatureExtractor extractor(flow_->design, {});
  // Mean prediction over training samples is close to the label mean.
  double predSum = 0.0, labelSum = 0.0;
  for (const auto& s : data_->samples) {
    predSum += predictor.predictOp(extractor, s.functionIndex, s.op).average;
    labelSum += s.avgCongestion;
  }
  const double n = static_cast<double>(data_->samples.size());
  EXPECT_NEAR(predSum / n, labelSum / n, 10.0);
}

TEST_F(CoreTest, HotspotsRankedAndBounded) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const auto hotspots = predictor.findHotspots(flow_->design, {}, 5);
  ASSERT_LE(hotspots.size(), 5u);
  ASSERT_FALSE(hotspots.empty());
  for (std::size_t i = 1; i < hotspots.size(); ++i)
    EXPECT_GE(hotspots[i - 1].meanPredicted, hotspots[i].meanPredicted);
  for (const auto& h : hotspots) {
    EXPECT_FALSE(h.functionName.empty());
    EXPECT_GT(h.numOps, 0u);
  }
}

TEST_F(CoreTest, UntrainedPredictorThrows) {
  CongestionPredictor predictor{PredictorOptions{}};
  features::FeatureExtractor extractor(flow_->design, {});
  EXPECT_THROW(predictor.predictOp(extractor, 0, 0), hcp::Error);
  EXPECT_THROW(predictor.findHotspots(flow_->design, {}, 3), hcp::Error);
}

TEST_F(CoreTest, ResolverSuggestsRemovingInline) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const auto hotspots = predictor.findHotspots(flow_->design, {}, 10);
  const auto hints = adviseResolution(flow_->design, hotspots, {});
  ASSERT_FALSE(hints.empty());
  bool sawInlineHint = false;
  for (const auto& h : hints) {
    if (h.kind == ResolutionKind::RemoveInline) {
      sawInlineHint = true;
      // Target must be a real function of the design.
      EXPECT_NE(flow_->design.module->findFunction(h.target),
                ir::kInvalidIndex);
    }
    EXPECT_FALSE(h.message.empty());
  }
  EXPECT_TRUE(sawInlineHint);
}

TEST_F(CoreTest, ResolverHintsSortedBySeverity) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const auto hints = adviseResolution(
      flow_->design, predictor.findHotspots(flow_->design, {}, 10), {});
  for (std::size_t i = 1; i < hints.size(); ++i)
    EXPECT_GE(hints[i - 1].severity, hints[i].severity);
}

// Every region of the fixture design, in (function, line) order, one line
// each: `function line ops mean max` with the two doubles as %a hexfloats,
// so the text is exact.
std::string hotspotLines(std::vector<Hotspot> hotspots) {
  std::sort(hotspots.begin(), hotspots.end(),
            [](const Hotspot& a, const Hotspot& b) {
              return std::pair(a.functionIndex, a.sourceLine) <
                     std::pair(b.functionIndex, b.sourceLine);
            });
  std::string out;
  char buf[160];
  for (const Hotspot& h : hotspots) {
    std::snprintf(buf, sizeof buf, " %d %zu %a %a\n", h.sourceLine, h.numOps,
                  h.meanPredicted, h.maxPredicted);
    out += h.functionName + buf;
  }
  return out;
}

// The predicted value of every region, pinned to
// results/golden_hotspots_face_detection.txt. Any drift means the trained
// model, the feature extraction or the model evaluation changed a bit of
// output. Regenerate deliberately with HCP_REGEN_GOLDEN=1.
TEST_F(CoreTest, HotspotValuesMatchCheckedInGolden) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const std::string lines =
      hotspotLines(predictor.findHotspots(flow_->design, {}, SIZE_MAX));
  ASSERT_FALSE(lines.empty());
  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_hotspots_face_detection.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr) {
    std::ofstream(goldenPath, std::ios::binary) << lines;
    GTEST_SKIP() << "golden hotspots regenerated at " << goldenPath;
  }
  EXPECT_EQ(lines, test::slurpFile(goldenPath))
      << "predicted hotspots drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";
}

void expectSameHotspots(const std::vector<Hotspot>& a,
                        const std::vector<Hotspot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].functionIndex, b[i].functionIndex) << "rank " << i;
    EXPECT_EQ(a[i].functionName, b[i].functionName) << "rank " << i;
    EXPECT_EQ(a[i].sourceLine, b[i].sourceLine) << "rank " << i;
    EXPECT_EQ(a[i].numOps, b[i].numOps) << "rank " << i;
    EXPECT_EQ(a[i].meanPredicted, b[i].meanPredicted) << "rank " << i;
    EXPECT_EQ(a[i].maxPredicted, b[i].maxPredicted) << "rank " << i;
  }
}

// Regions with bit-equal means rank by (function, line) ascending, so a
// top-k cut through a tie group keeps the same regions on every platform.
TEST_F(CoreTest, HotspotTiesRankInKeyOrder) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const auto all = predictor.findHotspots(flow_->design, {}, SIZE_MAX);
  std::size_t cut = 0;  // a top-k that splits the first tie group
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Hotspot& a = all[i - 1];
    const Hotspot& b = all[i];
    ASSERT_GE(a.meanPredicted, b.meanPredicted) << "rank " << i;
    if (a.meanPredicted != b.meanPredicted) continue;
    EXPECT_LT(std::pair(a.functionIndex, a.sourceLine),
              std::pair(b.functionIndex, b.sourceLine))
        << a.functionName << ":" << a.sourceLine << " ranks before "
        << b.functionName << ":" << b.sourceLine << " at equal mean";
    if (cut == 0) cut = i;
  }
  // The fixture's six identical stage/weak functions tie exactly.
  ASSERT_GT(cut, 0u) << "fixture has no tie group";
  const auto top = predictor.findHotspots(flow_->design, {}, cut);
  expectSameHotspots(top, {all.begin(),
                           all.begin() + static_cast<std::ptrdiff_t>(cut)});
}

// findHotspots scores ops on the pool; the ranking must not depend on the
// thread count and must equal a serial fold of predictOp's average.
TEST_F(CoreTest, HotspotsThreadInvariantAndMatchSerialOracle) {
  CongestionPredictor predictor{PredictorOptions{}};
  predictor.train(*data_);
  const hls::SynthesizedDesign& design = flow_->design;

  features::FeatureExtractor extractor(design, {});
  std::map<std::pair<std::uint32_t, std::int32_t>, Hotspot> regions;
  for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f) {
    const ir::Function& fn = design.module->function(f);
    for (ir::OpId op = 0; op < fn.numOps(); ++op) {
      if (!ir::isFunctionalUnit(fn.op(op).opcode)) continue;
      const double y = predictor.predictOp(extractor, f, op).average;
      Hotspot& h = regions[{f, fn.op(op).sourceLine}];
      h.functionIndex = f;
      h.functionName = fn.name();
      h.sourceLine = fn.op(op).sourceLine;
      h.meanPredicted += y;  // the sum until all ops are in
      h.maxPredicted = std::max(h.maxPredicted, y);
      ++h.numOps;
    }
  }
  std::vector<Hotspot> oracle;
  for (auto& [key, h] : regions) {
    h.meanPredicted /= static_cast<double>(h.numOps);
    oracle.push_back(h);
  }
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const Hotspot& a, const Hotspot& b) {
                     return a.meanPredicted > b.meanPredicted;
                   });

  for (std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    support::ScopedThreadLimit limit(threads);
    expectSameHotspots(predictor.findHotspots(design, {}, SIZE_MAX), oracle);
  }
}

TEST(RunFlows, ByteAndCounterIdenticalAcrossThreadCounts) {
  // The thread-invariance contract every binary relies on: the same designs
  // run serially and on two pool threads serialize to the same bytes and
  // leave the same telemetry counter totals.
  namespace telemetry = support::telemetry;
  const fpga::Device device = fpga::Device::xc7z020like();
  struct Run {
    std::vector<std::string> flows;
    std::array<std::uint64_t, telemetry::kNumCounters> counters{};
  };
  const auto runAt = [&](std::size_t threads) {
    support::ScopedThreadLimit limit(threads);
    std::vector<apps::AppDesign> designs;
    designs.push_back(apps::makeDesign("spam_filter"));
    designs.push_back(apps::makeDesign("rendering_3d"));
    telemetry::setEnabled(true);
    telemetry::reset();
    const auto results = runFlows(designs, device);
    Run run;
    run.counters = telemetry::snapshot().counters;
    telemetry::reset();
    telemetry::setEnabled(false);
    for (const auto& result : results) {
      std::ostringstream os;
      writeFlowResult(os, result);
      run.flows.push_back(os.str());
    }
    return run;
  };
  const Run serial = runAt(1);
  const Run parallel = runAt(2);
  ASSERT_EQ(serial.flows.size(), 2u);
  ASSERT_EQ(parallel.flows.size(), 2u);
  for (std::size_t d = 0; d < serial.flows.size(); ++d)
    EXPECT_TRUE(serial.flows[d] == parallel.flows[d]) << "design " << d;
  EXPECT_GT(serial.counters[static_cast<std::size_t>(
                telemetry::Counter::PlacerMovesProposed)],
            0u);
  for (std::size_t c = 0; c < telemetry::kNumCounters; ++c)
    EXPECT_EQ(serial.counters[c], parallel.counters[c])
        << telemetry::counterName(static_cast<telemetry::Counter>(c));
}

TEST(ModelKindNames, AllNamed) {
  EXPECT_EQ(modelKindName(ModelKind::Linear), "Linear");
  EXPECT_EQ(modelKindName(ModelKind::Ann), "ANN");
  EXPECT_EQ(modelKindName(ModelKind::Gbrt), "GBRT");
  EXPECT_EQ(resolutionKindName(ResolutionKind::ReplicateInputs),
            "replicate-inputs");
}

}  // namespace
}  // namespace hcp::core
