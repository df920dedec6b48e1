// Streaming sample access for out-of-core training.
//
// A RowSource is a multi-pass, read-only view of (features, targets)
// samples in one fixed canonical order. Every model fit (Lasso's Gram
// accumulation, GBRT's feature-block binning, the MLP's one materializing
// read) consumes *only* this interface, and the in-memory Dataset is
// adapted through DatasetSource — so the in-memory and the sharded on-disk
// paths run the exact same arithmetic in the exact same order, and the
// trained models are byte-identical by construction (see DESIGN.md §19,
// "streaming determinism contract").
//
// A source carries numTargets() labels per sample (the shard sets carry
// the vertical, horizontal and average congestion of each row). The
// *Targets visits hand every label of a row to one call, so one pass can
// serve the fits of all of them (ml::fitEachTarget); forEach and
// visitParallel hand over the first label only.
//
// Contract a RowSource must honor:
//   - size(), numFeatures() and numTargets() are stable across passes;
//   - forEach / forEachTargets visit every sample exactly once, in index
//     order 0..size()-1, serially, and may be called any number of times;
//   - visitParallel / visitParallelTargets visit the same samples with the
//     same indices but may run concurrently; callers pass bodies that only
//     write state owned by the visited index, so results are identical at
//     any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace hcp::ml {

class RowSource {
 public:
  /// fn(index, features, target); `features` is only valid for the duration
  /// of the call (streamed sources reuse buffers between samples).
  using RowFn = std::function<void(std::size_t, const std::vector<double>&,
                                   double)>;
  /// fn(index, features, targets): all numTargets() labels of the row, valid
  /// only for the duration of the call like `features`.
  using TargetsFn = std::function<void(
      std::size_t, const std::vector<double>&, std::span<const double>)>;

  virtual ~RowSource() = default;

  virtual std::size_t size() const = 0;
  virtual std::size_t numFeatures() const = 0;
  /// Labels per sample. Default: one.
  virtual std::size_t numTargets() const { return 1; }

  /// Serial in-order visitation. Order-sensitive accumulations (scaler
  /// moments, Gram matrix, target means) use this pass.
  virtual void forEach(const RowFn& fn) const = 0;

  /// Possibly-concurrent visitation; `fn` must be thread-safe and only
  /// touch state owned by the visited index. Pure per-row transforms
  /// (binning, prediction) use this pass. Default: the serial pass.
  virtual void visitParallel(const RowFn& fn) const { forEach(fn); }

  /// forEach with every label of the row. Default: forEach's one target.
  virtual void forEachTargets(const TargetsFn& fn) const {
    forEach([&](std::size_t i, const std::vector<double>& row, double y) {
      fn(i, row, std::span<const double>(&y, 1));
    });
  }

  /// visitParallel with every label of the row. Default: visitParallel's
  /// one target.
  virtual void visitParallelTargets(const TargetsFn& fn) const {
    visitParallel([&](std::size_t i, const std::vector<double>& row,
                      double y) { fn(i, row, std::span<const double>(&y, 1)); });
  }
};

/// Adapts an in-memory Dataset to RowSource: all of its rows, or only the
/// rows named by an index list (renumbered 0..size()-1 in list order).
class DatasetSource final : public RowSource {
 public:
  explicit DatasetSource(const Dataset& data) : data_(&data) {}
  /// `index` must outlive the source.
  DatasetSource(const Dataset& data, const std::vector<std::size_t>& index)
      : data_(&data), index_(&index) {}
  DatasetSource(const Dataset&, std::vector<std::size_t>&&) = delete;

  std::size_t size() const override {
    return index_ != nullptr ? index_->size() : data_->size();
  }
  std::size_t numFeatures() const override { return data_->numFeatures(); }
  void forEach(const RowFn& fn) const override;
  void visitParallel(const RowFn& fn) const override;

 private:
  std::size_t rowOf(std::size_t i) const {
    return index_ != nullptr ? (*index_)[i] : i;
  }

  const Dataset* data_;
  const std::vector<std::size_t>* index_ = nullptr;
};

/// Copies a source into an owning Dataset in one serial pass.
Dataset materialize(const RowSource& source);

}  // namespace hcp::ml
