#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/validation.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace hcp::ml {
namespace {

Dataset linearData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(3);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniformReal(-1, 1), rng.uniformReal(-1, 1),
                          rng.uniformReal(-1, 1)};
    data.add(x, 3 * x[0] - x[1] + rng.normal(0, 0.1));
  }
  return data;
}

/// k-fold cross-validation of one model: a grid search over a one-config
/// grid, whose only result is that model's scores.
CvResult crossValidate(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, std::size_t k, std::uint64_t seed) {
  return gridSearch<int>({0}, [&](const int&) { return factory(); }, data, k,
                         seed)
      .bestCv;
}

TEST(CrossValidate, RunsAllFolds) {
  const auto data = linearData(200, 1);
  const CvResult cv = crossValidate(
      [] { return std::make_unique<LassoRegression>(); }, data, 5, 42);
  EXPECT_EQ(cv.foldMae.size(), 5u);
  EXPECT_EQ(cv.foldMedae.size(), 5u);
  EXPECT_GT(cv.meanMae, 0.0);
  EXPECT_LT(cv.meanMae, 0.3);  // easy linear problem
  EXPECT_LE(cv.meanMedae, cv.meanMae * 1.5);
}

TEST(CrossValidate, DeterministicPerSeed) {
  const auto data = linearData(150, 2);
  auto factory = [] { return std::make_unique<LassoRegression>(); };
  const CvResult a = crossValidate(factory, data, 4, 7);
  const CvResult b = crossValidate(factory, data, 4, 7);
  EXPECT_DOUBLE_EQ(a.meanMae, b.meanMae);
}

/// Nonlinear target over five uniform features plus one constant column.
Dataset goldenData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6, 2.0);
    for (std::size_t j = 0; j < 5; ++j) x[j] = rng.uniformReal(-2, 2);
    data.add(x, 3 * x[0] - x[1] * x[2] + x[3] * x[3] + rng.normal(0, 0.3));
  }
  return data;
}

// Every family's per-fold MAE/MedAE, as exact hexfloats, must match
// results/golden_cv_scores.txt byte for byte: any change to how a fold is
// trained or scored shows up here. The file is regenerated when missing or
// when HCP_REGEN_GOLDEN is set.
TEST(CrossValidate, GoldenFoldScores) {
  const Dataset data = goldenData(181, 31);
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<Regressor>()>>>
      families{
          {"linear",
           [] { return std::make_unique<LassoRegression>(
                    LassoConfig{.alpha = 0.01}); }},
          {"gbrt",
           [] { return std::make_unique<Gbrt>(
                    GbrtConfig{.numEstimators = 25, .maxDepth = 3}); }},
          {"ann",
           [] { return std::make_unique<MlpRegressor>(
                    MlpConfig{.hiddenLayers = {8}, .batchSize = 16,
                              .maxEpochs = 25, .seed = 5}); }},
      };
  std::string text;
  for (const auto& [name, factory] : families) {
    const CvResult cv = crossValidate(factory, data, 4, 17);
    for (std::size_t f = 0; f < cv.foldMae.size(); ++f) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s fold %zu mae %a medae %a\n",
                    name.c_str(), f, cv.foldMae[f], cv.foldMedae[f]);
      text += buf;
    }
  }

  const std::string goldenPath =
      std::string(HCP_RESULTS_DIR) + "/golden_cv_scores.txt";
  if (std::getenv("HCP_REGEN_GOLDEN") != nullptr ||
      !std::ifstream(goldenPath).good()) {
    std::ofstream(goldenPath, std::ios::binary) << text;
    GTEST_SKIP() << "golden CV scores regenerated at " << goldenPath;
  }
  EXPECT_EQ(text, test::slurpFile(goldenPath))
      << "CV scores drifted from " << goldenPath
      << " (regenerate deliberately with HCP_REGEN_GOLDEN=1)";
}

TEST(GridSearch, PicksBestAlpha) {
  const auto data = linearData(300, 3);
  // Absurdly strong regularization must lose to a sensible one.
  const std::vector<LassoConfig> grid{
      {.alpha = 0.01}, {.alpha = 50.0}};
  const auto result = gridSearch<LassoConfig>(
      grid,
      [](const LassoConfig& c) {
        return std::make_unique<LassoRegression>(c);
      },
      data, 4, 11);
  EXPECT_DOUBLE_EQ(result.bestConfig.alpha, 0.01);
  EXPECT_EQ(result.all.size(), 2u);
  EXPECT_LE(result.bestCv.meanMae, result.all[1].second.meanMae);
}

TEST(GridSearch, SingleCandidateWorks) {
  const auto data = linearData(100, 4);
  const std::vector<GbrtConfig> grid{{.numEstimators = 20}};
  const auto result = gridSearch<GbrtConfig>(
      grid,
      [](const GbrtConfig& c) { return std::make_unique<Gbrt>(c); },
      data, 3, 5);
  EXPECT_EQ(result.bestConfig.numEstimators, 20u);
}

TEST(GridSearch, EmptyGridRejected) {
  const auto data = linearData(50, 5);
  EXPECT_THROW(
      gridSearch<LassoConfig>(
          {},
          [](const LassoConfig& c) {
            return std::make_unique<LassoRegression>(c);
          },
          data, 3, 1),
      hcp::Error);
}

}  // namespace
}  // namespace hcp::ml
