// Gradient Boosted Regression Trees (paper §III-C2): a stage-wise ensemble
// of shallow CART trees fit to least-squares gradients (residuals), with
// shrinkage, row subsampling and per-tree feature subsampling. The paper's
// best model; its split-count feature importance drives Table V.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tree.hpp"

namespace hcp::ml {

struct GbrtConfig {
  std::size_t numEstimators = 300;
  double learningRate = 0.08;
  int maxDepth = 4;
  std::size_t minSamplesLeaf = 8;  ///< rows per side of a cut; 0 acts as 1
  double subsample = 0.8;        ///< row fraction per stage
  double featureFraction = 0.4;  ///< feature fraction per stage
  std::uint32_t numBins = 32;
  std::uint64_t seed = 13;
};

class Gbrt : public Regressor {
 public:
  explicit Gbrt(GbrtConfig config = {}) : config_(config) {}

  double predict(const std::vector<double>& row) const override;
  std::string name() const override { return "GBRT"; }

  /// Normalized per-feature importance: fraction of ensemble splits using
  /// each feature (the paper's measure). Sums to 1 (or is all-zero if the
  /// ensemble never split).
  std::vector<double> featureImportance() const;

  /// Gain-weighted variant for comparison.
  std::vector<double> featureImportanceByGain() const;

  std::size_t numTrees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  const GbrtConfig& config() const { return config_; }
  double baseline() const { return baseline_; }
  double trainLoss() const { return trainLoss_; }

  /// Text serialization (used by ml/serialize).
  void write(std::ostream& os) const;
  void read(std::istream& is);

 protected:
  /// Quantile edges come from the feature-block streamed binner and the raw
  /// feature matrix is never materialized — only the uint8 binned matrix
  /// (one byte per value) plus the targets stay in memory for the boosting
  /// stages. One pass per feature block serves every target; the binner and
  /// the matrix are shared, so the models must agree on numBins.
  void fitTargets(const RowSource& source,
                  std::span<Regressor* const> models) override;

 private:
  /// The boosting stages on one target, seeded from this model's config.
  void boost(const std::vector<std::uint8_t>& binned,
             const std::vector<double>& targets,
             const std::vector<bool>& canSplit);

  /// Rebuilds the flat forest from trees_ (after every fit and read).
  void flatten();

  /// A node of the flat forest: child[0] is taken when
  /// x[feature] <= threshold, child[1] otherwise (NaN included). A leaf is
  /// a node whose two children are itself.
  struct FlatNode {
    std::int32_t feature;
    std::int32_t child[2];
    double threshold;
  };
  struct FlatTree {
    std::int32_t root;
    std::int32_t steps;  ///< comparisons per walk: the tree's depth - 1
  };

  GbrtConfig config_;
  Binner binner_;
  double baseline_ = 0.0;
  std::vector<RegressionTree> trees_;  ///< kept for write, importance
  std::size_t numFeatures_ = 0;
  double trainLoss_ = 0.0;
  // predict() walks these: every tree's nodes back to back, leaf values
  // indexed like the nodes.
  std::vector<FlatNode> flatNodes_;
  std::vector<double> flatLeaves_;
  std::vector<FlatTree> flatTrees_;
};

}  // namespace hcp::ml
