#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

/// y = 2*x0 - 3*x1 + 1 + noise over d features (rest irrelevant).
Dataset linearData(std::size_t n, std::size_t d, double noise,
                   std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(d);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.uniformReal(-1, 1);
    data.add(x, 2 * x[0] - 3 * x[1] + 1 + rng.normal(0, noise));
  }
  return data;
}

/// y = 4*x0*x1 + x2^2 + noise — needs a nonlinear model.
Dataset nonlinearData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(d);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.uniformReal(-2, 2);
    data.add(x, 4 * x[0] * x[1] + x[2] * x[2] + rng.normal(0, 0.2));
  }
  return data;
}

// --- Lasso -----------------------------------------------------------------

TEST(Lasso, RecoversLinearTarget) {
  const auto data = linearData(500, 6, 0.05, 1);
  LassoRegression model({.alpha = 0.01});
  model.fit(data);
  const auto pred = model.predictAll(data);
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 0.15);
}

TEST(Lasso, AlphaControlsSparsity) {
  const auto data = linearData(400, 20, 0.1, 2);
  LassoRegression loose({.alpha = 0.001});
  LassoRegression tight({.alpha = 0.8});
  loose.fit(data);
  tight.fit(data);
  const auto nonZero = [](const LassoRegression& m) {
    return std::count_if(m.weights().begin(), m.weights().end(),
                         [](double w) { return w != 0.0; });
  };
  EXPECT_LT(nonZero(tight), nonZero(loose));
  // Strong regularization still keeps the two real predictors.
  EXPECT_GE(nonZero(tight), 1);
}

TEST(Lasso, ConvergesBeforeIterationCap) {
  const auto data = linearData(200, 4, 0.05, 3);
  LassoRegression model({.alpha = 0.05, .maxIterations = 400});
  model.fit(data);
  EXPECT_LT(model.iterationsRun(), 400);
}

TEST(Lasso, PredictBeforeFitThrows) {
  LassoRegression model;
  EXPECT_THROW(model.predict({1.0}), hcp::Error);
}

// --- MLP ---------------------------------------------------------------

TEST(Mlp, LearnsNonlinearTarget) {
  const auto data = nonlinearData(1500, 8, 4);
  MlpRegressor model({.hiddenLayers = {32, 16}, .maxEpochs = 80});
  model.fit(data);
  const auto pred = model.predictAll(data);
  // Std of the target is ~5; a linear model can't get below ~3 MAE.
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 1.5);
}

TEST(Mlp, BeatsLinearOnNonlinearData) {
  const auto data = nonlinearData(1500, 8, 5);
  const Split split = trainTestSplit(data.size(), 0.25, 9);
  const auto train = data.subset(split.train);
  const auto test = data.subset(split.test);
  LassoRegression linear({.alpha = 0.01});
  MlpRegressor mlp({.hiddenLayers = {32, 16}, .maxEpochs = 80});
  linear.fit(train);
  mlp.fit(train);
  const double maeLinear =
      meanAbsoluteError(test.targets(), linear.predictAll(test));
  const double maeMlp = meanAbsoluteError(test.targets(), mlp.predictAll(test));
  EXPECT_LT(maeMlp, maeLinear * 0.6);
}

TEST(Mlp, EarlyStoppingBoundsEpochs) {
  // Noisy targets: validation loss plateaus once the signal is fitted.
  const auto data = linearData(300, 4, 0.5, 6);
  MlpRegressor model({.hiddenLayers = {16}, .maxEpochs = 200, .patience = 3});
  model.fit(data);
  EXPECT_LT(model.epochsRun(), 200u) << "early stopping never fired";
  EXPECT_GT(model.epochsRun(), 3u);
  EXPECT_TRUE(std::isfinite(model.bestValidationLoss()));
}

std::string modelBytes(const Regressor& model) {
  std::ostringstream os;
  saveModel(model, os);
  return os.str();
}

TEST(Mlp, DeterministicForSeed) {
  const auto data = linearData(200, 4, 0.1, 7);
  MlpRegressor a({.maxEpochs = 10, .seed = 5});
  MlpRegressor b({.maxEpochs = 10, .seed = 5});
  a.fit(data);
  b.fit(data);
  EXPECT_EQ(modelBytes(a), modelBytes(b));
}

/// Fits `model` on `data` and returns the error message; fails the test
/// when the fit does not throw.
std::string fitError(Regressor&& model, const Dataset& data) {
  try {
    model.fit(data);
  } catch (const hcp::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "fit accepted an invalid config";
  return "";
}

TEST(Mlp, RejectsZeroBatchSize) {
  const auto data = linearData(50, 3, 0.1, 8);
  EXPECT_NE(
      fitError(MlpRegressor({.batchSize = 0}), data).find("batchSize"),
      std::string::npos);
}

TEST(Mlp, RejectsValidationFractionLeavingNoTrainingRows) {
  const auto data = linearData(50, 3, 0.1, 8);
  for (double f : {1.0, 1.5})
    EXPECT_NE(fitError(MlpRegressor({.validationFraction = f}), data)
                  .find("validationFraction"),
              std::string::npos)
        << f;
}

TEST(Mlp, RejectsZeroWidthHiddenLayer) {
  const auto data = linearData(50, 3, 0.1, 8);
  EXPECT_NE(fitError(MlpRegressor({.hiddenLayers = {8, 0}}), data)
                .find("hiddenLayers"),
            std::string::npos);
}

/// Nonlinear target over five uniform features plus one constant column
/// (standardizes to exactly zero, so its weight gradients are all zero).
Dataset goldenData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6, 3.0);
    for (std::size_t j = 0; j < 5; ++j) x[j] = rng.uniformReal(-2, 2);
    data.add(x, 4 * x[0] * x[1] + x[2] * x[2] - x[3] + rng.normal(0, 0.3));
  }
  return data;
}

/// Two hidden layers; 203 rows leave 183 after the 10% validation split,
/// so the last of each epoch's 16-row batches is ragged (7 rows).
const MlpConfig kGoldenConfig{.hiddenLayers = {12, 6},
                              .batchSize = 16,
                              .maxEpochs = 400,
                              .patience = 5,
                              .seed = 11};

// The fitted model's bytes and its predictions on unseen rows (as exact
// hexfloats) must match results/golden_mlp_model.txt byte for byte. Any
// change to the fit's floating-point sums shows up here. The file is
// regenerated when missing or when HCP_REGEN_GOLDEN is set.
TEST(Mlp, GoldenModelBytes) {
  MlpRegressor model(kGoldenConfig);
  model.fit(goldenData(203, 21));
  ASSERT_LT(model.epochsRun(), kGoldenConfig.maxEpochs)
      << "early stopping must fire";

  std::string bytes = modelBytes(model);
  const Dataset unseen = goldenData(8, 22);
  for (std::size_t i = 0; i < unseen.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "predict %a\n", model.predict(unseen.row(i)));
    bytes += buf;
  }

  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_mlp_model.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr ||
      !std::ifstream(goldenPath).good()) {
    std::ofstream(goldenPath, std::ios::binary) << bytes;
    GTEST_SKIP() << "golden model regenerated at " << goldenPath;
  }
  EXPECT_EQ(bytes, test::slurpFile(goldenPath))
      << "fitted ANN drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";
}

// Batch gradients are formed on the thread pool; the model bytes must not
// depend on the thread count or on telemetry (which makes a one-thread
// region run through the pool's task path).
TEST(Mlp, ModelBytesIndependentOfThreadsAndTelemetry) {
  const Dataset data = goldenData(203, 21);
  const bool wasEnabled = support::telemetry::enabled();
  std::string reference;
  for (bool telemetryOn : {false, true}) {
    support::telemetry::setEnabled(telemetryOn);
    for (std::size_t threads : {1, 2, 4}) {
      support::ScopedThreadLimit limit(threads);
      MlpRegressor model(kGoldenConfig);
      model.fit(data);
      const std::string bytes = modelBytes(model);
      if (reference.empty()) reference = bytes;
      EXPECT_EQ(bytes, reference)
          << threads << " threads, telemetry " << telemetryOn;
    }
  }
  support::telemetry::setEnabled(wasEnabled);
}

// --- trees -------------------------------------------------------------

TEST(Binner, QuantileBinsMonotone) {
  Dataset rows(1);
  for (int i = 0; i < 100; ++i) rows.add({static_cast<double>(i)}, 0.0);
  Binner binner;
  binner.fitStreamed(DatasetSource(rows), 16);
  std::uint8_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto bin = binner.binOf(0, static_cast<double>(i));
    EXPECT_GE(bin, prev);
    prev = bin;
  }
  EXPECT_GT(prev, 10);  // uses most of the 16 bins on uniform data
}

TEST(Binner, ConstantFeatureSingleBin) {
  Dataset rows(1);
  for (int i = 0; i < 50; ++i) rows.add({3.0}, 0.0);
  Binner binner;
  binner.fitStreamed(DatasetSource(rows), 16);
  EXPECT_LE(binner.binOf(0, 3.0), 1);
}

TEST(RegressionTreeTest, FitsStepFunction) {
  Dataset data(1);
  for (int i = 0; i < 200; ++i) {
    const double x = i / 200.0;
    data.add({x}, x < 0.5 ? 1.0 : 5.0);
  }
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 2, .minSamplesLeaf = 5});
  EXPECT_NEAR(tree.predict({0.2}), 1.0, 0.1);
  EXPECT_NEAR(tree.predict({0.9}), 5.0, 0.1);
  EXPECT_GE(tree.splitCounts()[0], 1u);
}

TEST(RegressionTreeTest, DepthLimited) {
  const auto data = nonlinearData(500, 4, 11);
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 3, .minSamplesLeaf = 2});
  EXPECT_LE(tree.depth(), 4);  // root at depth 1
}

TEST(RegressionTreeTest, MinSamplesLeafRespected) {
  Dataset data(1);
  for (int i = 0; i < 20; ++i)
    data.add({static_cast<double>(i)}, static_cast<double>(i));
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 10, .minSamplesLeaf = 8});
  // With 20 samples and >= 8 per leaf, at most 2 leaves -> <= 3 nodes.
  EXPECT_LE(tree.numNodes(), 3u);
}

// --- GBRT ------------------------------------------------------------------

TEST(GbrtTest, LearnsNonlinearTarget) {
  const auto data = nonlinearData(1500, 8, 12);
  Gbrt model({.numEstimators = 200, .learningRate = 0.1});
  model.fit(data);
  const auto pred = model.predictAll(data);
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 1.2);
}

TEST(GbrtTest, BeatsLinearOnNonlinearData) {
  const auto data = nonlinearData(1500, 8, 13);
  const Split split = trainTestSplit(data.size(), 0.25, 3);
  const auto train = data.subset(split.train);
  const auto test = data.subset(split.test);
  LassoRegression linear({.alpha = 0.01});
  Gbrt gbrt;
  linear.fit(train);
  gbrt.fit(train);
  EXPECT_LT(meanAbsoluteError(test.targets(), gbrt.predictAll(test)),
            meanAbsoluteError(test.targets(), linear.predictAll(test)) * 0.6);
}

TEST(GbrtTest, MoreTreesFitBetter) {
  const auto data = nonlinearData(800, 6, 14);
  Gbrt few({.numEstimators = 10});
  Gbrt many({.numEstimators = 200});
  few.fit(data);
  many.fit(data);
  EXPECT_LT(many.trainLoss(), few.trainLoss());
}

TEST(GbrtTest, FeatureImportanceFindsRealPredictors) {
  const auto data = nonlinearData(1200, 10, 15);  // only x0,x1,x2 matter
  Gbrt model({.numEstimators = 150, .featureFraction = 1.0});
  model.fit(data);
  const auto imp = model.featureImportance();
  ASSERT_EQ(imp.size(), 10u);
  double sum = 0.0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Split counts dilute over noise features at shallow depth; the real
  // predictors must still dominate.
  EXPECT_GT(imp[0] + imp[1] + imp[2], 0.5);
}

TEST(GbrtTest, DeterministicForSeed) {
  const auto data = nonlinearData(400, 5, 16);
  Gbrt a({.numEstimators = 30, .seed = 8});
  Gbrt b({.numEstimators = 30, .seed = 8});
  a.fit(data);
  b.fit(data);
  EXPECT_DOUBLE_EQ(a.predict(data.row(1)), b.predict(data.row(1)));
}

std::vector<std::vector<double>> firstRows(const Dataset& data,
                                           std::size_t n) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < std::min(n, data.size()); ++i)
    rows.push_back(data.row(i));
  return rows;
}

TEST(GbrtTest, PredictEqualsTreeByTreeSum) {
  const auto data = nonlinearData(600, 6, 17);
  Gbrt model({.numEstimators = 60, .seed = 3});
  model.fit(data);
  test::expectPredictEqualsTreeSum(model, firstRows(data, 40));
}

TEST(GbrtTest, PredictEqualsTreeByTreeSumOnSingleLeafAndUnbalancedTrees) {
  // x1 is constant: a stage that samples only x1 cannot split and grows a
  // single leaf. Skewed x0 with a large leaf minimum leaves trees whose
  // leaves sit at different depths.
  Rng rng(5);
  Dataset data(2);
  for (int i = 0; i < 300; ++i) {
    const double x0 = std::pow(rng.uniformReal(0, 1), 4.0);
    data.add({x0, 1.0}, x0 > 0.3 ? 10.0 * x0 : rng.normal(0, 0.1));
  }
  Gbrt model({.numEstimators = 40,
              .maxDepth = 5,
              .minSamplesLeaf = 20,
              .featureFraction = 0.5,
              .seed = 2});
  model.fit(data);
  bool sawLeaf = false, sawUnbalanced = false;
  for (const RegressionTree& t : model.trees()) {
    sawLeaf |= t.numNodes() == 1;
    sawUnbalanced |= t.numNodes() + 1 < (std::size_t{1} << t.depth());
  }
  ASSERT_TRUE(sawLeaf);
  ASSERT_TRUE(sawUnbalanced);
  test::expectPredictEqualsTreeSum(model, firstRows(data, 20));
}

/// Four uniform features, a constant column (x4, one bin: it can never
/// split) and a rarely-varying one (x5 is 1 in about 3% of rows, else 0).
Dataset gbrtGoldenData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6, 3.0);
    for (std::size_t j = 0; j < 4; ++j) x[j] = rng.uniformReal(-2, 2);
    x[5] = rng.uniformReal(0, 1) < 0.03 ? 1.0 : 0.0;
    data.add(x, 4 * x[0] * x[1] + x[2] * x[2] - x[3] + 5 * x[5] +
                    rng.normal(0, 0.3));
  }
  return data;
}

/// Feature-subsampled configs: one with no leaf minimum (which acts as a
/// minimum of 1), one sampling a single feature per stage (a stage that
/// draws the constant column grows a single leaf).
const GbrtConfig kGbrtGoldenConfigs[] = {
    {.numEstimators = 40, .minSamplesLeaf = 0, .featureFraction = 0.5,
     .seed = 4},
    {.numEstimators = 40, .featureFraction = 0.2, .seed = 6},
};

// The fitted models' bytes and their predictions on unseen rows (as exact
// hexfloats) must match results/golden_gbrt_model.txt byte for byte; any
// change to a split choice or a leaf sum shows up here. The file is
// regenerated when missing or when HCP_REGEN_GOLDEN is set.
TEST(Gbrt, GoldenModelBytes) {
  const Dataset data = gbrtGoldenData(300, 31);
  const Dataset unseen = gbrtGoldenData(8, 32);
  std::string bytes;
  for (const GbrtConfig& config : kGbrtGoldenConfigs) {
    Gbrt model(config);
    model.fit(data);
    bytes += modelBytes(model);
    for (std::size_t i = 0; i < unseen.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "predict %a\n",
                    model.predict(unseen.row(i)));
      bytes += buf;
    }
  }

  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_gbrt_model.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr ||
      !std::ifstream(goldenPath).good()) {
    std::ofstream(goldenPath, std::ios::binary) << bytes;
    GTEST_SKIP() << "golden model regenerated at " << goldenPath;
  }
  EXPECT_EQ(bytes, test::slurpFile(goldenPath))
      << "fitted GBRT drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";
}

// A cut with an empty side used to be scored when minSamplesLeaf was 0: if
// `sum - leftSum` rounded to nonzero it scored +inf, won, and left a 0/0 =
// NaN leaf, so every prediction through it was NaN (on this data, all of
// them). Every cut now keeps rows on both sides.
TEST(Gbrt, ZeroLeafMinimumGrowsNoNaN) {
  const Dataset data = gbrtGoldenData(300, 31);
  const Dataset unseen = gbrtGoldenData(50, 33);
  Gbrt model(kGbrtGoldenConfigs[0]);
  ASSERT_EQ(model.config().minSamplesLeaf, 0u);
  model.fit(data);
  EXPECT_TRUE(std::isfinite(model.trainLoss()));
  for (const RegressionTree& t : model.trees())
    for (const RegressionTree::Node& n : t.nodes())
      ASSERT_TRUE(std::isfinite(n.value));
  for (const Dataset* rows : {&data, &unseen})
    for (std::size_t i = 0; i < rows->size(); ++i)
      ASSERT_TRUE(std::isfinite(model.predict(rows->row(i)))) << i;
  // And a leaf minimum of 0 fits exactly what a minimum of 1 fits.
  GbrtConfig one = kGbrtGoldenConfigs[0];
  one.minSamplesLeaf = 1;
  Gbrt reference(one);
  reference.fit(data);
  for (std::size_t i = 0; i < unseen.size(); ++i)
    EXPECT_EQ(model.predict(unseen.row(i)), reference.predict(unseen.row(i)));
}

// The split search shards features across the pool; the model bytes must
// not depend on the thread count or on telemetry (which makes a one-thread
// region run through the pool's task path).
TEST(Gbrt, ModelBytesIndependentOfThreadsAndTelemetry) {
  const Dataset data = gbrtGoldenData(300, 31);
  const bool wasEnabled = support::telemetry::enabled();
  for (const GbrtConfig& config : kGbrtGoldenConfigs) {
    std::string reference;
    for (bool telemetryOn : {false, true}) {
      support::telemetry::setEnabled(telemetryOn);
      for (std::size_t threads : {1, 2, 4}) {
        support::ScopedThreadLimit limit(threads);
        Gbrt model(config);
        model.fit(data);
        const std::string bytes = modelBytes(model);
        if (reference.empty()) reference = bytes;
        EXPECT_EQ(bytes, reference)
            << threads << " threads, telemetry " << telemetryOn;
      }
    }
  }
  support::telemetry::setEnabled(wasEnabled);
}

TEST(Gbrt, RejectsSubsampleOutsideUnitInterval) {
  const auto data = linearData(200, 3, 0.1, 9);
  for (double f : {0.0, -0.5, 1.5, std::nan("")})
    EXPECT_NE(fitError(Gbrt({.subsample = f}), data).find("subsample"),
              std::string::npos)
        << f;
}

TEST(Gbrt, RejectsFeatureFractionOutsideUnitInterval) {
  const auto data = linearData(200, 3, 0.1, 9);
  for (double f : {0.0, -1.0, 2.0, std::nan("")})
    EXPECT_NE(fitError(Gbrt({.featureFraction = f}), data)
                  .find("featureFraction"),
              std::string::npos)
        << f;
}

TEST(Gbrt, RejectsNonPositiveOrNonFiniteLearningRate) {
  const auto data = linearData(200, 3, 0.1, 9);
  for (double r : {0.0, -0.1, std::numeric_limits<double>::infinity(),
                   std::nan("")})
    EXPECT_NE(fitError(Gbrt({.learningRate = r}), data).find("learningRate"),
              std::string::npos)
        << r;
}

/// Property sweep: all three models produce finite predictions across
/// dataset shapes.
class ModelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModelSweep, FinitePredictions) {
  const std::size_t d = GetParam();
  const auto data = linearData(120, d, 0.2, 17 + d);
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<LassoRegression>());
  models.push_back(std::make_unique<MlpRegressor>(
      MlpConfig{.hiddenLayers = {8}, .maxEpochs = 5}));
  models.push_back(std::make_unique<Gbrt>(GbrtConfig{.numEstimators = 10}));
  for (auto& model : models) {
    model->fit(data);
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_TRUE(std::isfinite(model->predict(data.row(i))))
          << model->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ModelSweep, ::testing::Values(2, 5, 17, 40));

}  // namespace
}  // namespace hcp::ml
