#include "ml/gbrt.hpp"

#include <algorithm>
#include <cmath>

#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

void Gbrt::fitStreaming(const RowSource& source) {
  HCP_SPAN("gbrt_fit");
  // Out-of-range fractions would slice rows/features past their ends.
  HCP_CHECK_MSG(config_.subsample > 0.0 && config_.subsample <= 1.0,
                "GbrtConfig.subsample must be in (0, 1], got "
                    << config_.subsample);
  HCP_CHECK_MSG(
      config_.featureFraction > 0.0 && config_.featureFraction <= 1.0,
      "GbrtConfig.featureFraction must be in (0, 1], got "
          << config_.featureFraction);
  HCP_CHECK_MSG(std::isfinite(config_.learningRate) &&
                    config_.learningRate > 0.0,
                "GbrtConfig.learningRate must be finite and > 0, got "
                    << config_.learningRate);
  const std::size_t n = source.size();
  HCP_CHECK(n >= 4);
  numFeatures_ = source.numFeatures();
  Rng rng(config_.seed);

  // Quantile edges stream through feature blocks; the raw doubles of a
  // block are dropped before the next is gathered. One more parallel pass
  // bins every row into a column-major n x d byte matrix and captures the
  // targets, after which the source is not touched again: the boosting
  // stages below run on the resident matrix.
  binner_.fitStreamed(source, config_.numBins);
  std::vector<double> targets;
  const std::vector<std::uint8_t> binned =
      binner_.binColumns(source, targets);

  // A feature whose column holds one bin has an empty side at every cut:
  // the leaf minimum rejects the cut, or with no minimum its gain is
  // 0/0 = NaN, which never wins. Stages leave such features out of the
  // split search; the trees are the ones a full search would grow.
  std::vector<bool> canSplit(numFeatures_);
  for (std::size_t f = 0; f < numFeatures_; ++f) {
    const auto col = binned.begin() + static_cast<std::ptrdiff_t>(f * n);
    canSplit[f] = std::any_of(col, col + static_cast<std::ptrdiff_t>(n),
                              [&](std::uint8_t b) { return b != *col; });
  }

  // F0 = mean target.
  baseline_ = 0.0;
  for (double y : targets) baseline_ += y;
  baseline_ /= static_cast<double>(n);

  std::vector<double> prediction(n, baseline_);
  std::vector<double> residual(n);
  trees_.clear();
  trees_.reserve(config_.numEstimators);

  const auto rowsPerStage = static_cast<std::size_t>(
      std::max(2.0, config_.subsample * static_cast<double>(n)));
  const auto featsPerStage = static_cast<std::size_t>(std::max(
      1.0, config_.featureFraction * static_cast<double>(numFeatures_)));

  TreeConfig treeConfig;
  treeConfig.maxDepth = config_.maxDepth;
  treeConfig.minSamplesLeaf = config_.minSamplesLeaf;

  std::vector<std::size_t> allRows(n);
  for (std::size_t i = 0; i < allRows.size(); ++i) allRows[i] = i;
  std::vector<std::size_t> allFeatures(numFeatures_);
  for (std::size_t f = 0; f < numFeatures_; ++f) allFeatures[f] = f;

  for (std::size_t stage = 0; stage < config_.numEstimators; ++stage) {
    for (std::size_t i = 0; i < n; ++i)
      residual[i] = targets[i] - prediction[i];

    // Row / feature subsampling for this stage.
    rng.shuffle(allRows);
    std::vector<std::size_t> rows(allRows.begin(),
                                  allRows.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          rowsPerStage));
    rng.shuffle(allFeatures);
    std::vector<std::size_t> features;
    features.reserve(featsPerStage);
    for (std::size_t p = 0; p < featsPerStage; ++p)
      if (canSplit[allFeatures[p]]) features.push_back(allFeatures[p]);

    RegressionTree tree;
    tree.fitBinned(binned, n, residual, std::move(rows), features, binner_,
                   treeConfig);

    // Per-row updates are independent and write disjoint slots.
    support::parallelFor(0, n, 256, [&](std::size_t i) {
      prediction[i] +=
          config_.learningRate * tree.predictBinned(binned, n, i);
    });
    trees_.push_back(std::move(tree));
  }
  support::telemetry::count(support::telemetry::Counter::GbrtBoostingRounds,
                            config_.numEstimators);

  trainLoss_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = targets[i] - prediction[i];
    trainLoss_ += d * d;
  }
  trainLoss_ /= static_cast<double>(n);
  flatten();
}

void Gbrt::flatten() {
  flatNodes_.clear();
  flatLeaves_.clear();
  flatTrees_.clear();
  flatTrees_.reserve(trees_.size());
  for (const RegressionTree& t : trees_) {
    const auto root = static_cast<std::int32_t>(flatNodes_.size());
    flatTrees_.push_back({root, t.depth() - 1});
    for (const RegressionTree::Node& n : t.nodes()) {
      const auto self = static_cast<std::int32_t>(flatNodes_.size());
      if (n.feature < 0)
        flatNodes_.push_back({0, {self, self}, 0.0});
      else
        flatNodes_.push_back(
            {n.feature, {root + n.left, root + n.right}, n.threshold});
      flatLeaves_.push_back(n.value);
    }
  }
}

double Gbrt::predict(const std::vector<double>& row) const {
  HCP_CHECK_MSG(row.size() == numFeatures_,
                "gbrt expects " << numFeatures_ << " features, got "
                                << row.size());
  // Each walk takes exactly the tree's depth - 1 steps; a leaf reached
  // early loops onto itself, so the loop has no data-dependent exit. The
  // leaves add up in tree order, as RegressionTree::predict's sum would.
  const double* x = row.data();
  const FlatNode* nodes = flatNodes_.data();
  double y = baseline_;
  for (const FlatTree& t : flatTrees_) {
    std::int32_t idx = t.root;
    for (std::int32_t s = 0; s < t.steps; ++s) {
      const FlatNode& n = nodes[idx];
      idx = n.child[!(x[n.feature] <= n.threshold)];
    }
    y += config_.learningRate * flatLeaves_[static_cast<std::size_t>(idx)];
  }
  return y;
}

std::vector<double> Gbrt::featureImportance() const {
  std::vector<double> imp(numFeatures_, 0.0);
  double total = 0.0;
  for (const RegressionTree& t : trees_) {
    const auto& counts = t.splitCounts();
    for (std::size_t f = 0; f < counts.size(); ++f) {
      imp[f] += counts[f];
      total += counts[f];
    }
  }
  if (total > 0)
    for (double& v : imp) v /= total;
  return imp;
}

std::vector<double> Gbrt::featureImportanceByGain() const {
  std::vector<double> imp(numFeatures_, 0.0);
  double total = 0.0;
  for (const RegressionTree& t : trees_) {
    const auto& gains = t.splitGains();
    for (std::size_t f = 0; f < gains.size(); ++f) {
      imp[f] += gains[f];
      total += gains[f];
    }
  }
  if (total > 0)
    for (double& v : imp) v /= total;
  return imp;
}

}  // namespace hcp::ml
