#include "ml/linear.hpp"

#include <cmath>

namespace hcp::ml {

namespace {
double softThreshold(double x, double lambda) {
  if (x > lambda) return x - lambda;
  if (x < -lambda) return x + lambda;
  return 0.0;
}
}  // namespace

// Gram-form cyclic coordinate descent. The former implementation kept the
// full standardized design matrix resident (O(n*d) doubles) to update a
// residual vector per weight change; here the same normal-equation
// quantities are accumulated in one streaming pass —
//
//   G[j][k] = sum_i z_ij * z_ik      (d x d Gram matrix)
//   c[j]    = sum_i z_ij * (y_i - yMean)
//
// after which each descent sweep needs only G and c:
//   rho_j = c[j] - sum_k G[j][k] w_k + G[j][j] w_j
// which equals the former x_j . (residual + x_j w_j) exactly (same
// optimization problem, same update rule, same tolerance loop), while the
// working set is O(d^2) regardless of the sample count.
//
// Only c, the target mean and the descent depend on the label, so one fit
// serves every target of the source in three passes: feature and target
// means, feature stds, then G and one c per target.
void LassoRegression::fitTargets(const RowSource& source,
                                 std::span<Regressor* const> models) {
  const std::size_t n = source.size();
  HCP_CHECK(n > 0);
  const std::size_t d = source.numFeatures();
  HCP_CHECK(d > 0);
  const std::size_t k = models.size();

  // Centre the targets; each intercept absorbs its target's mean.
  StandardScaler scaler;
  std::vector<double> yMean;
  scaler.fit(source, &yMean);

  // One serial pass accumulates Gram + correlations in sample order: the
  // summation order is fixed by the source's canonical order, never by
  // thread count or by how many targets share the pass, so the result (and
  // everything downstream) is bit-reproducible.
  std::vector<double> gram(d * d, 0.0);
  std::vector<double> corr(k * d, 0.0);
  source.forEachTargets([&](std::size_t, const std::vector<double>& row,
                            std::span<const double> y) {
    const auto z = scaler.transform(row);
    for (std::size_t t = 0; t < k; ++t) {
      const double yc = y[t] - yMean[t];
      double* ct = corr.data() + t * d;
      for (std::size_t j = 0; j < d; ++j) ct[j] += z[j] * yc;
    }
    for (std::size_t j = 0; j < d; ++j) {
      double* gj = gram.data() + j * d;
      const double zj = z[j];
      for (std::size_t c = j; c < d; ++c) gj[c] += zj * z[c];
    }
  });
  for (std::size_t j = 0; j < d; ++j)  // mirror the upper triangle
    for (std::size_t c = j + 1; c < d; ++c) gram[c * d + j] = gram[j * d + c];

  for (std::size_t t = 0; t < k; ++t) {
    LassoRegression& m = targetModel<LassoRegression>(models, t);
    m.scaler_ = scaler;
    m.intercept_ = yMean[t];
    m.descend(gram, corr.data() + t * d, n);
  }
}

void LassoRegression::descend(const std::vector<double>& gram,
                              const double* corr, std::size_t n) {
  const std::size_t d = scaler_.mean().size();
  weights_.assign(d, 0.0);

  // Columns are standardized, so sum(x_j^2) == n for every j.
  const double colNorm = static_cast<double>(n);
  const double lambda = config_.alpha * static_cast<double>(n);

  iterationsRun_ = 0;
  for (int it = 0; it < config_.maxIterations; ++it) {
    double maxChange = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double old = weights_[j];
      const double* gj = gram.data() + j * d;
      double dot = 0.0;
      for (std::size_t c = 0; c < d; ++c) dot += gj[c] * weights_[c];
      const double rho = corr[j] - dot + gj[j] * old;
      const double next = softThreshold(rho, lambda) / colNorm;
      if (next != old) {
        weights_[j] = next;
        maxChange = std::max(maxChange, std::fabs(next - old));
      }
    }
    ++iterationsRun_;
    if (maxChange < config_.tolerance) break;
  }
}

double LassoRegression::predict(const std::vector<double>& row) const {
  HCP_CHECK(scaler_.fitted());
  const auto z = scaler_.transform(row);
  double y = intercept_;
  for (std::size_t j = 0; j < z.size(); ++j) y += weights_[j] * z[j];
  return y;
}

std::size_t LassoRegression::nonZeroWeights() const {
  std::size_t count = 0;
  for (double w : weights_)
    if (w != 0.0) ++count;
  return count;
}

}  // namespace hcp::ml
