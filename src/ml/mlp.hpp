// Artificial neural network regressor (paper §III-C2): fully-connected
// hidden layers with ReLU activations, trained with mini-batch Adam on
// standardized inputs/targets. Early stopping on a held-out validation
// fraction mirrors how the paper tunes its "number of hyperparameters".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/model.hpp"

namespace hcp::ml {

struct MlpConfig {
  std::vector<std::size_t> hiddenLayers = {64, 32};
  double learningRate = 1e-3;
  double l2 = 1e-4;
  std::size_t batchSize = 64;
  std::size_t maxEpochs = 60;
  /// Stop when validation loss fails to improve for this many epochs.
  std::size_t patience = 8;
  double validationFraction = 0.1;
  std::uint64_t seed = 7;
};

class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpConfig config = {}) : config_(std::move(config)) {}

  double predict(const std::vector<double>& row) const override;
  std::string name() const override { return "ANN"; }

  std::size_t epochsRun() const { return epochsRun_; }
  double bestValidationLoss() const { return bestValLoss_; }

  /// Text serialization (used by ml/serialize).
  void write(std::ostream& os) const;
  void read(std::istream& is);

 protected:
  /// Reads the source once into memory, standardizes that copy, then
  /// trains each target's model on the shared contiguous standardized rows.
  void fitTargets(const RowSource& source,
                  std::span<Regressor* const> models) override;

 private:
  /// Standardizes `targets`, then runs mini-batch Adam with early stopping
  /// on the standardized row-major n x d rows `X`.
  void train(const std::vector<double>& X, std::size_t d,
             const std::vector<double>& targets);

  struct Layer {
    std::size_t in = 0, out = 0;
    std::vector<double> w;  ///< row-major [out][in]
    std::vector<double> b;
  };

  MlpConfig config_;
  StandardScaler scaler_;
  double yMean_ = 0.0, yStd_ = 1.0;
  std::vector<Layer> layers_;
  std::size_t epochsRun_ = 0;
  double bestValLoss_ = 0.0;
};

}  // namespace hcp::ml
