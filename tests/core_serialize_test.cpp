// Predictor persistence and dataset enrichment (paper §III: enrich the
// training data with one flow of the target design when few applications
// are available).
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/predictor.hpp"
#include "ml/metrics.hpp"

namespace hcp::core {
namespace {

class CoreSerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    device_ = new fpga::Device(fpga::Device::xc7z020like());
    apps::FaceDetectionConfig cfg;
    cfg.stages = 4;
    cfg.windowTrip = 64;
    cfg.fillTrip = 64;
    apps::DigitRecognitionConfig digitCfg;
    digitCfg.trainingSize = 128;
    digitCfg.unroll = 8;
    flows_ = new std::vector<FlowResult>();
    flows_->reserve(2);
    flows_->push_back(runFlow(apps::faceDetection(cfg), *device_, {}));
    flows_->push_back(runFlow(apps::digitRecognition(digitCfg), *device_, {}));
    faceFlow_ = &(*flows_)[0];
    digitFlow_ = &(*flows_)[1];
  }
  static void TearDownTestSuite() {
    delete flows_;
    delete device_;
  }

  static fpga::Device* device_;
  static std::vector<FlowResult>* flows_;  ///< face, then digit
  static FlowResult* faceFlow_;
  static FlowResult* digitFlow_;
};

fpga::Device* CoreSerializeTest::device_ = nullptr;
std::vector<FlowResult>* CoreSerializeTest::flows_ = nullptr;
FlowResult* CoreSerializeTest::faceFlow_ = nullptr;
FlowResult* CoreSerializeTest::digitFlow_ = nullptr;

TEST_F(CoreSerializeTest, PredictorSaveLoadBitIdentical) {
  const auto data = buildDataset(*faceFlow_, {});
  PredictorOptions opts;
  opts.gbrt.numEstimators = 30;
  CongestionPredictor predictor(opts);
  predictor.train(data);

  const std::string path = "predictor_test.hcp";
  predictor.save(path);
  const auto restored = CongestionPredictor::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(restored.trained());

  features::FeatureExtractor extractor(faceFlow_->design, {});
  for (std::size_t i = 0; i < std::min<std::size_t>(20, data.samples.size());
       ++i) {
    const auto& s = data.samples[i];
    const auto a = predictor.predictOp(extractor, s.functionIndex, s.op);
    const auto b = restored.predictOp(extractor, s.functionIndex, s.op);
    EXPECT_DOUBLE_EQ(a.vertical, b.vertical);
    EXPECT_DOUBLE_EQ(a.horizontal, b.horizontal);
    EXPECT_DOUBLE_EQ(a.average, b.average);
  }
}

TEST_F(CoreSerializeTest, SaveUntrainedThrows) {
  CongestionPredictor predictor{PredictorOptions{}};
  EXPECT_THROW(predictor.save("nope.hcp"), hcp::Error);
}

// Enriching a dataset with another design's flow is buildDataset over both
// flows: the first flow's rows, then the second's, with the filter counts
// summed.
TEST_F(CoreSerializeTest, EnrichmentAppendsRows) {
  const auto base = buildDataset(*faceFlow_, {});
  const auto extra = buildDataset(*digitFlow_, {});
  const auto both = buildDataset(*flows_, {});
  const auto expectAppended = [](const ml::Dataset& all, const ml::Dataset& a,
                                 const ml::Dataset& b) {
    ASSERT_EQ(all.size(), a.size() + b.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const bool first = i < a.size();
      const std::size_t j = first ? i : i - a.size();
      EXPECT_EQ(all.row(i), first ? a.row(j) : b.row(j)) << "row " << i;
      EXPECT_EQ(all.target(i), first ? a.target(j) : b.target(j)) << i;
    }
  };
  expectAppended(both.vertical, base.vertical, extra.vertical);
  expectAppended(both.horizontal, base.horizontal, extra.horizontal);
  expectAppended(both.average, base.average, extra.average);
  ASSERT_EQ(both.samples.size(), both.vertical.size());
  for (std::size_t i = 0; i < both.samples.size(); ++i) {
    const bool first = i < base.samples.size();
    const trace::Sample& want =
        first ? base.samples[i] : extra.samples[i - base.samples.size()];
    EXPECT_EQ(both.samples[i].functionIndex, want.functionIndex) << i;
    EXPECT_EQ(both.samples[i].op, want.op) << i;
  }
  EXPECT_EQ(both.filterStats.total,
            base.filterStats.total + extra.filterStats.total);
  EXPECT_EQ(both.filterStats.marginal,
            base.filterStats.marginal + extra.filterStats.marginal);
}

TEST_F(CoreSerializeTest, EnrichmentImprovesTargetAccuracy) {
  // Paper §III: with few training apps, one flow of the target design
  // enriches the dataset and improves its estimation accuracy.
  const auto trainData = buildDataset(*faceFlow_, {});
  const auto targetData = buildDataset(*digitFlow_, {});

  PredictorOptions opts;
  opts.gbrt.numEstimators = 60;
  auto evalOnTarget = [&](const LabeledDataset& train) {
    CongestionPredictor predictor(opts);
    predictor.train(train);
    features::FeatureExtractor extractor(digitFlow_->design, {});
    std::vector<double> actual, predicted;
    for (const auto& s : targetData.samples) {
      actual.push_back(s.avgCongestion);
      predicted.push_back(
          predictor.predictOp(extractor, s.functionIndex, s.op).average);
    }
    return ml::meanAbsoluteError(actual, predicted);
  };

  const double before = evalOnTarget(trainData);
  const double after = evalOnTarget(buildDataset(*flows_, {}));
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace hcp::core
