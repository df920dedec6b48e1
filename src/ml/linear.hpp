// Lasso linear regression (paper §III-C2): least squares with an
// L1-regularization penalty whose strength (alpha) controls weight sparsity.
// Solved by cyclic coordinate descent with soft-thresholding on
// standardized features.
#pragma once

#include <string>

#include "ml/model.hpp"

namespace hcp::ml {

struct LassoConfig {
  double alpha = 0.1;   ///< L1 strength (the paper's tuning parameter)
  int maxIterations = 400;
  double tolerance = 1e-5;
};

class LassoRegression : public Regressor {
 public:
  explicit LassoRegression(LassoConfig config = {}) : config_(config) {}

  double predict(const std::vector<double>& row) const override;
  std::string name() const override { return "Linear"; }

  /// Weights in standardized feature space (sparsity inspection).
  const std::vector<double>& weights() const { return weights_; }
  int iterationsRun() const { return iterationsRun_; }

  /// Text serialization (used by ml/serialize).
  void write(std::ostream& os) const;
  void read(std::istream& is);

 protected:
  /// Bounded-memory fit: three serial passes over the source (feature and
  /// target means, feature stds, Gram matrix and per-target correlations);
  /// working state is O(d^2 + k*d), independent of the sample count. The
  /// scaler and Gram matrix are shared by every target's model.
  void fitTargets(const RowSource& source,
                  std::span<Regressor* const> models) override;

 private:
  /// Coordinate descent on the shared Gram matrix against this target's
  /// correlations (`d` values); the scaler and intercept are already set.
  void descend(const std::vector<double>& gram, const double* corr,
               std::size_t n);

  LassoConfig config_;
  StandardScaler scaler_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  int iterationsRun_ = 0;
};

}  // namespace hcp::ml
