// k-fold cross-validation and grid search (paper §IV-A: "we employ a
// 10-fold cross-validation on the training set and grid search is applied
// to find the best hyperparameters of each model").
//
// Grid search is generic over a config type: supply the candidate configs
// and a factory building a Regressor from one; the winner minimizes mean
// cross-validated MAE. Cross-validating a single model is a grid search over
// a one-config grid.
//
// gridSearch parallelizes deterministically: every (config x fold) pair is
// its own task. Folds are computed up front from the seed, per-task results
// merge by index, and the best config is picked by a strictly-smaller
// comparison in grid order — so any thread count (including HCP_THREADS=1)
// yields bit-identical results. Factories must be safe to call concurrently
// (the stateless lambdas used throughout this repo are).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

struct CvResult {
  std::vector<double> foldMae;
  std::vector<double> foldMedae;
  double meanMae = 0.0;
  double meanMedae = 0.0;
};

namespace detail {

struct FoldScore {
  double mae = 0.0;
  double medae = 0.0;
};

/// Trains a factory-built model on the fold's train rows and scores it on
/// its test rows, both read in place through index-list DatasetSources.
FoldScore evaluateFold(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, const Split& fold);

/// Assembles per-fold scores into a CvResult.
CvResult assemble(const std::vector<FoldScore>& scores);

}  // namespace detail

template <typename Config>
struct GridSearchResult {
  Config bestConfig{};
  CvResult bestCv;
  std::vector<std::pair<Config, CvResult>> all;
};

/// Exhaustive grid search over `grid`, scored by mean CV MAE. Every
/// (config, fold) pair is an independent parallel task.
template <typename Config>
GridSearchResult<Config> gridSearch(
    const std::vector<Config>& grid,
    const std::function<std::unique_ptr<Regressor>(const Config&)>& factory,
    const Dataset& data, std::size_t k, std::uint64_t seed) {
  HCP_SPAN("grid_search");
  HCP_CHECK(!grid.empty());
  HCP_CHECK(data.size() >= k);
  const auto folds = kFoldSplits(data.size(), k, seed);

  const std::size_t numPairs = grid.size() * folds.size();
  const auto scores =
      support::parallelMapIndex(numPairs, [&](std::size_t pair) {
        const Config& config = grid[pair / folds.size()];
        const Split& fold = folds[pair % folds.size()];
        return detail::evaluateFold([&] { return factory(config); }, data,
                                    fold);
      });

  GridSearchResult<Config> result;
  bool first = true;
  for (std::size_t c = 0; c < grid.size(); ++c) {
    const auto begin = scores.begin() +
                       static_cast<std::ptrdiff_t>(c * folds.size());
    const CvResult cv = detail::assemble(
        std::vector<detail::FoldScore>(begin, begin + static_cast<std::ptrdiff_t>(folds.size())));
    result.all.emplace_back(grid[c], cv);
    if (first || cv.meanMae < result.bestCv.meanMae) {
      result.bestConfig = grid[c];
      result.bestCv = cv;
      first = false;
    }
  }
  return result;
}

}  // namespace hcp::ml
