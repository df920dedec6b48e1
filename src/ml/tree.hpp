// CART regression trees over histogram-binned features.
//
// Features are quantile-binned once (Binner) into a flat column-major byte
// matrix; each tree node then finds the best split with one
// O(rows x features) histogram sweep instead of sorting, which keeps a
// 300-tree GBRT over 300+ features fast. Split quality is
// variance reduction (sum^2/count gain). Trees record per-feature split
// counts and gains — the paper's Table V importance measure is "the number
// of times a feature is used as a split point" across the ensemble.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/model.hpp"
#include "support/rng.hpp"

namespace hcp::ml {

/// A binned training set: the column-major n x d bin matrix (the bin of
/// row i, feature f sits at bins[f * n + i]) and every target of the
/// source (targets[t][i]).
struct BinnedRows {
  std::vector<std::uint8_t> bins;
  std::vector<std::vector<double>> targets;
};

/// Quantile binning of a feature matrix.
class Binner {
 public:
  /// Fits up to `numBins` quantile bins per feature and bins every row of
  /// `source`. Features are gathered in column blocks sized to
  /// `columnBudgetBytes` of resident doubles, one source pass per block;
  /// a block's columns are binned while they are resident, and the first
  /// block's pass also captures the targets. Per-feature quantile edges
  /// depend only on each column's value multiset, and each bin only on its
  /// value, so edges and matrix are bit-identical at any block size and
  /// thread count.
  BinnedRows fitStreamed(const RowSource& source, std::uint32_t numBins,
                         std::size_t columnBudgetBytes = std::size_t{64}
                                                         << 20);

  /// Bin index of a raw value for a feature.
  std::uint8_t binOf(std::size_t feature, double value) const;

  /// Raw-value threshold "value <= threshold goes left" for a split at the
  /// upper edge of `bin`.
  double threshold(std::size_t feature, std::uint8_t bin) const;

  std::uint32_t numBins() const { return numBins_; }
  bool fitted() const { return !edges_.empty(); }

 private:
  std::uint32_t numBins_ = 0;
  /// edges_[f] holds ascending upper edges; bin i = values <= edges_[f][i].
  std::vector<std::vector<double>> edges_;
};

struct TreeConfig {
  int maxDepth = 4;
  std::size_t minSamplesLeaf = 8;  ///< rows per side of a cut; 0 acts as 1
};

class RegressionTree {
 public:
  /// Fits on a column-major binned matrix (row i, feature f at
  /// binned[f * stride + i]) restricted to `rows`, searching splits only
  /// among `features`. Targets are the boosting residuals. An empty
  /// `features` list grows a single leaf.
  void fitBinned(const std::vector<std::uint8_t>& binned, std::size_t stride,
                 const std::vector<double>& targets,
                 std::vector<std::size_t> rows,
                 const std::vector<std::size_t>& features,
                 const Binner& binner, const TreeConfig& config);

  double predict(const std::vector<double>& row) const;
  /// Prediction for row `row` of a matrix laid out as fitBinned's.
  double predictBinned(const std::vector<std::uint8_t>& binned,
                       std::size_t stride, std::size_t row) const;

  /// Convenience: bins internally and fits on a whole dataset.
  void fit(const Dataset& data, const TreeConfig& config = {},
           std::uint32_t numBins = 32);

  std::size_t numNodes() const { return nodes_.size(); }
  int depth() const;

  /// Split statistics per feature index (importance inputs).
  const std::vector<std::uint32_t>& splitCounts() const {
    return splitCounts_;
  }
  const std::vector<double>& splitGains() const { return splitGains_; }

  /// Text serialization (used by ml/serialize). read() rejects a tree that
  /// splits on a feature >= `numFeatures` or whose children are not later
  /// nodes of the same tree, so a loaded tree always terminates in range.
  void write(std::ostream& os) const;
  void read(std::istream& is, std::size_t numFeatures);

  struct Node {
    std::int32_t feature = -1;     ///< -1 = leaf
    std::uint8_t bin = 0;          ///< binned comparison: <= goes left
    double threshold = 0.0;        ///< raw-value comparison
    std::int32_t left = -1, right = -1;
    double value = 0.0;            ///< leaf prediction
  };

  /// Preorder node array: node 0 is the root and every child index is
  /// greater than its parent's (fitted and loaded trees alike).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::int32_t build(const std::vector<std::uint8_t>& binned,
                     std::size_t stride, const std::vector<double>& targets,
                     std::vector<std::size_t>& rows,
                     const std::vector<std::size_t>& features,
                     const Binner& binner, const TreeConfig& config,
                     int depth);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> splitCounts_;
  std::vector<double> splitGains_;
};

}  // namespace hcp::ml
