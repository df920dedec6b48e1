// Common regressor interface for the three model families the paper compares
// (Lasso linear regression, ANN, GBRT).
#pragma once

#include <memory>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/sample_source.hpp"
#include "support/parallel.hpp"

namespace hcp::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains from a RowSource: the one fit every model implements. The
  /// in-memory and sharded paths both land here, so their trained models
  /// are byte-identical by construction (DESIGN.md §19).
  virtual void fitStreaming(const RowSource& source) = 0;

  /// Trains on an in-memory dataset (models standardize internally as
  /// needed).
  void fit(const Dataset& data) { fitStreaming(DatasetSource(data)); }

  virtual double predict(const std::vector<double>& row) const = 0;

  std::vector<double> predictAll(const Dataset& data) const {
    // predict() is const and rows are independent; results land by index,
    // so the output is identical at any thread count.
    return support::parallelMapIndex(
        data.size(), [&](std::size_t i) { return predict(data.row(i)); },
        /*grainSize=*/64);
  }

  virtual std::string name() const = 0;
};

}  // namespace hcp::ml
