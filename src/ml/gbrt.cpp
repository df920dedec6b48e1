#include "ml/gbrt.hpp"

#include <algorithm>
#include <cmath>

#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

void Gbrt::fitTargets(const RowSource& source,
                      std::span<Regressor* const> models) {
  HCP_SPAN("gbrt_fit");
  for (std::size_t t = 0; t < models.size(); ++t) {
    const GbrtConfig& c = targetModel<Gbrt>(models, t).config_;
    // Out-of-range fractions would slice rows/features past their ends.
    HCP_CHECK_MSG(c.subsample > 0.0 && c.subsample <= 1.0,
                  "GbrtConfig.subsample must be in (0, 1], got "
                      << c.subsample);
    HCP_CHECK_MSG(c.featureFraction > 0.0 && c.featureFraction <= 1.0,
                  "GbrtConfig.featureFraction must be in (0, 1], got "
                      << c.featureFraction);
    HCP_CHECK_MSG(std::isfinite(c.learningRate) && c.learningRate > 0.0,
                  "GbrtConfig.learningRate must be finite and > 0, got "
                      << c.learningRate);
    // The bin matrix is shared, so every model must bin alike.
    HCP_CHECK_MSG(c.numBins == config_.numBins,
                  "GBRT models fitted together must share numBins, got "
                      << c.numBins << " and " << config_.numBins);
  }
  const std::size_t n = source.size();
  HCP_CHECK(n >= 4);
  const std::size_t d = source.numFeatures();

  // Quantile edges stream through feature blocks, and each block is binned
  // into a column-major n x d byte matrix while its raw doubles are
  // resident; the first block's pass captures the targets. After that the
  // source is not touched again: every target's boosting stages run on the
  // one resident matrix.
  Binner binner;
  const BinnedRows binned = binner.fitStreamed(source, config_.numBins);

  // A feature whose column holds one bin has an empty side at every cut,
  // and the split search rejects every such cut. Stages leave these
  // features out of the search; the trees are the ones a full search would
  // grow.
  std::vector<bool> canSplit(d);
  for (std::size_t f = 0; f < d; ++f) {
    const auto col = binned.bins.begin() + static_cast<std::ptrdiff_t>(f * n);
    canSplit[f] = std::any_of(col, col + static_cast<std::ptrdiff_t>(n),
                              [&](std::uint8_t b) { return b != *col; });
  }

  for (std::size_t t = 0; t < models.size(); ++t) {
    Gbrt& m = targetModel<Gbrt>(models, t);
    m.binner_ = binner;
    m.numFeatures_ = d;
    m.boost(binned.bins, binned.targets[t], canSplit);
  }
}

void Gbrt::boost(const std::vector<std::uint8_t>& binned,
                 const std::vector<double>& targets,
                 const std::vector<bool>& canSplit) {
  const std::size_t n = targets.size();
  Rng rng(config_.seed);

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
