// CongestionPredictor: the paper's primary contribution as a public API.
//
// Train once on datasets built from implemented designs; then, for any new
// design, predict per-operation vertical/horizontal congestion straight from
// HLS information and rank the congested source-code regions — without
// running the RTL implementation flow (paper Fig 2, prediction phase).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/shards.hpp"

namespace hcp::core {

enum class ModelKind { Linear, Ann, Gbrt };

std::string_view modelKindName(ModelKind kind);

struct PredictorOptions {
  ModelKind kind = ModelKind::Gbrt;
  ml::GbrtConfig gbrt;
  ml::MlpConfig mlp;
  ml::LassoConfig lasso;
};

/// Per-op congestion prediction.
struct OpPrediction {
  double vertical = 0.0;
  double horizontal = 0.0;
  double average = 0.0;
};

/// A source-code region ranked by predicted congestion.
struct Hotspot {
  std::uint32_t functionIndex = 0;
  std::string functionName;
  std::int32_t sourceLine = 0;
  std::size_t numOps = 0;
  double meanPredicted = 0.0;  ///< mean predicted avg congestion of its ops
  double maxPredicted = 0.0;
};

class CongestionPredictor {
 public:
  explicit CongestionPredictor(PredictorOptions options = {});

  /// Trains the three regressors (V, H, avg) on the dataset, in one fit
  /// over its rows (taken from `vertical`; buildDataset writes the same row
  /// to all three datasets) with the three labels as targets.
  void train(const LabeledDataset& data);

  /// Trains the three regressors out-of-core from a shard set, in one fit
  /// over a three-label ShardRowSource with one shard resident at a time —
  /// byte-identical models to train() on the materialized dataset. Fails
  /// loudly on an empty set.
  void trainFromShards(const ml::shards::ShardSet& set);

  bool trained() const { return trained_; }

  /// Predicts one op of a synthesized (but not implemented!) design.
  OpPrediction predictOp(const features::FeatureExtractor& extractor,
                         std::uint32_t functionIndex, ir::OpId op) const;

  /// Ranks source regions of a synthesized design by predicted congestion.
  /// Covers the top function and every callee. Regions are (function,
  /// source-line) groups of functional-unit ops, scored by the average
  /// model only; exact ties rank by (function index, line) ascending. The
  /// result is identical at any thread count.
  std::vector<Hotspot> findHotspots(const hls::SynthesizedDesign& design,
                                    const features::DeviceCaps& caps,
                                    std::size_t topK = 10) const;

  /// Persists the three trained models (train once, reuse across projects
  /// without another place-and-route run).
  void save(const std::string& path) const;
  /// Restores a predictor saved with save(); predictions are bit-identical.
  static CongestionPredictor load(const std::string& path);

  const ml::Regressor& verticalModel() const { return *vertical_; }
  const ml::Regressor& horizontalModel() const { return *horizontal_; }
  const ml::Regressor& averageModel() const { return *average_; }

 private:
  std::unique_ptr<ml::Regressor> makeModel() const;
  /// Builds the vertical, horizontal and average models and fits them
  /// together to the source's three targets, in that order.
  void fitModels(const ml::RowSource& source);

  PredictorOptions options_;
  std::unique_ptr<ml::Regressor> vertical_, horizontal_, average_;
  bool trained_ = false;
};

}  // namespace hcp::core
