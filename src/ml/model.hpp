// Common regressor interface for the three model families the paper compares
// (Lasso linear regression, ANN, GBRT).
#pragma once

#include <memory>
#include <span>
#include <typeinfo>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/sample_source.hpp"
#include "support/parallel.hpp"

namespace hcp::ml {

class Regressor;

/// Fits models[t] to target t of `source`, for every target at once: the
/// rows are read in one shared set of passes and the label-independent state
/// (scaler, Gram matrix, bin matrix, standardized rows) is built once; only
/// the per-label arithmetic runs per model. The models must be of one type;
/// each keeps its own configuration. Every sum runs in the order a
/// one-target fit would run it, so models[t] ends byte-identical to
/// models[t]->fitStreaming over a one-target source of target t (DESIGN.md
/// §19).
void fitEachTarget(const RowSource& source,
                   std::span<Regressor* const> models);

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains from a one-target RowSource: fitEachTarget with this model
  /// alone. The in-memory and sharded paths both land in the same fit, so
  /// their trained models are byte-identical by construction (DESIGN.md
  /// §19).
  void fitStreaming(const RowSource& source) {
    Regressor* self = this;
    fitEachTarget(source, {&self, 1});
  }

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

 protected:
  /// The one fit every model implements, called by fitEachTarget on
  /// models[0] (so `this` is models[0]) once it has checked that every
  /// model shares this model's type and that there is one model per
  /// target.
  virtual void fitTargets(const RowSource& source,
                          std::span<Regressor* const> models) = 0;

  friend void fitEachTarget(const RowSource& source,
                            std::span<Regressor* const> models);
};

inline void fitEachTarget(const RowSource& source,
                          std::span<Regressor* const> models) {
  HCP_CHECK_MSG(!models.empty() && models.size() == source.numTargets(),
                "fitting " << models.size() << " models to a source with "
                           << source.numTargets() << " targets");
  for (const Regressor* m : models)
    HCP_CHECK_MSG(typeid(*m) == typeid(*models[0]),
                  "fitEachTarget mixes " << models[0]->name() << " and "
                                         << m->name() << " models");
  models[0]->fitTargets(source, models);
}

/// models[t] as the concrete model type (fitEachTarget checked the types).
template <typename Model>
Model& targetModel(std::span<Regressor* const> models, std::size_t t) {
  return static_cast<Model&>(*models[t]);
}

}  // namespace hcp::ml
