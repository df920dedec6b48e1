#include "ml/dataset.hpp"

#include <cmath>

#include "ml/sample_source.hpp"

namespace hcp::ml {

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out(numFeatures_);
  for (std::size_t i : indices) out.add(row(i), target(i));
  return out;
}

Split trainTestSplit(std::size_t n, double testFraction,
                     std::uint64_t seed) {
  HCP_CHECK(testFraction > 0.0 && testFraction < 1.0);
  Rng rng(seed);
  auto perm = rng.permutation(n);
  const auto testSize = static_cast<std::size_t>(
      std::max(1.0, std::round(testFraction * static_cast<double>(n))));
  Split split;
  split.test.assign(perm.begin(),
                    perm.begin() + static_cast<std::ptrdiff_t>(testSize));
  split.train.assign(perm.begin() + static_cast<std::ptrdiff_t>(testSize),
                     perm.end());
  return split;
}

std::vector<Split> kFoldSplits(std::size_t n, std::size_t k,
                               std::uint64_t seed) {
  HCP_CHECK(k >= 2 && k <= n);
  Rng rng(seed);
  const auto perm = rng.permutation(n);
  std::vector<Split> folds(k);
  for (std::size_t f = 0; f < k; ++f) {
    const std::size_t lo = f * n / k;
    const std::size_t hi = (f + 1) * n / k;
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= lo && i < hi) folds[f].test.push_back(perm[i]);
      else folds[f].train.push_back(perm[i]);
    }
  }
  return folds;
}

void StandardScaler::fit(const RowSource& source,
                         std::vector<double>* targetMeans) {
  const std::size_t n = source.size();
  HCP_CHECK(n > 0);
  const std::size_t d = source.numFeatures();
  mean_.assign(d, 0.0);
  std_.assign(d, 0.0);
  std::vector<double> ySum(source.numTargets(), 0.0);
  source.forEachTargets([&](std::size_t, const std::vector<double>& r,
                            std::span<const double> y) {
    for (std::size_t j = 0; j < d; ++j) mean_[j] += r[j];
    for (std::size_t t = 0; t < y.size(); ++t) ySum[t] += y[t];
  });
  for (double& m : mean_) m /= static_cast<double>(n);
  if (targetMeans != nullptr) {
    for (double& m : ySum) m /= static_cast<double>(n);
    *targetMeans = std::move(ySum);
  }
  source.forEach(
      [&](std::size_t, const std::vector<double>& r, double) {
        for (std::size_t j = 0; j < d; ++j)
          std_[j] += (r[j] - mean_[j]) * (r[j] - mean_[j]);
      });
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(n));
    if (s < 1e-12) s = 1.0;  // constant column
  }
}

std::vector<double> StandardScaler::transform(
    const std::vector<double>& row) const {
  HCP_CHECK(fitted() && row.size() == mean_.size());
  std::vector<double> out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j)
    out[j] = (row[j] - mean_[j]) / std_[j];
  return out;
}

}  // namespace hcp::ml
