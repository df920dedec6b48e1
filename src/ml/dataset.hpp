// Tabular dataset + split utilities for the regression stage.
//
// Rows are feature vectors (one per IR-operation sample), targets are the
// congestion percentages. Index-based splits (80/20 hold-out and k-fold)
// are seeded and deterministic, matching the paper's protocol (§IV-A).
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace hcp::ml {

class RowSource;

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t numFeatures) : numFeatures_(numFeatures) {}

  void add(std::vector<double> row, double target) {
    if (numFeatures_ == 0) numFeatures_ = row.size();
    HCP_CHECK_MSG(row.size() == numFeatures_,
                  "row has " << row.size() << " features, expected "
                             << numFeatures_);
    rows_.push_back(std::move(row));
    targets_.push_back(target);
  }

  std::size_t size() const { return targets_.size(); }
  std::size_t numFeatures() const { return numFeatures_; }
  const std::vector<double>& row(std::size_t i) const {
    HCP_CHECK(i < rows_.size());
    return rows_[i];
  }
  double target(std::size_t i) const {
    HCP_CHECK(i < targets_.size());
    return targets_[i];
  }
  const std::vector<std::vector<double>>& rows() const { return rows_; }
  const std::vector<double>& targets() const { return targets_; }

  /// Deep-copying subset by row indices.
  Dataset subset(const std::vector<std::size_t>& indices) const;

 private:
  std::size_t numFeatures_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<double> targets_;
};

struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Shuffled hold-out split (e.g. testFraction = 0.2 for the paper's 80/20).
Split trainTestSplit(std::size_t n, double testFraction, std::uint64_t seed);

/// Shuffled k-fold splits; every index appears in exactly one test fold.
std::vector<Split> kFoldSplits(std::size_t n, std::size_t k,
                               std::uint64_t seed);

/// Column-wise standardization fitted on training data.
class StandardScaler {
 public:
  /// Two ordered passes over the source: column means, then standard
  /// deviations (a constant column gets std 1). With `targetMeans`, the
  /// first pass also takes the mean of each of the source's targets.
  void fit(const RowSource& source,
           std::vector<double>* targetMeans = nullptr);
  std::vector<double> transform(const std::vector<double>& row) const;
  bool fitted() const { return !mean_.empty(); }
  const std::vector<double>& mean() const { return mean_; }

  /// Text serialization (used by ml/serialize). read() rejects a std that
  /// is not positive: a fit never writes one, and it would make every
  /// prediction NaN or infinite.
  void write(std::ostream& os) const;
  void read(std::istream& is);

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace hcp::ml
