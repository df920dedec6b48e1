#include "ml/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace hcp::ml {

namespace {
std::vector<double> absErrors(std::span<const double> a,
                              std::span<const double> p) {
  HCP_CHECK(a.size() == p.size() && !a.empty());
  std::vector<double> e(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) e[i] = std::fabs(a[i] - p[i]);
  return e;
}
}  // namespace

double meanAbsoluteError(std::span<const double> actual,
                         std::span<const double> predicted) {
  return mean(absErrors(actual, predicted));
}

double medianAbsoluteError(std::span<const double> actual,
                           std::span<const double> predicted) {
  return median(absErrors(actual, predicted));
}

std::vector<std::size_t> topFractionIndices(std::span<const double> values,
                                            double topFraction) {
  if (values.empty()) return {};
  HCP_CHECK_MSG(topFraction > 0.0 && topFraction <= 1.0,
                "topFraction must be in (0, 1], got " << topFraction);
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(topFraction * static_cast<double>(values.size()))));
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Strict value ordering with the index as the tie-break: equal values keep
  // their lower index first, so the chosen hotspot set never depends on sort
  // implementation details.
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

double hotspotIoU(std::span<const double> actual,
                  std::span<const double> predicted, double topFraction) {
  HCP_CHECK(actual.size() == predicted.size());
  if (actual.empty()) return 1.0;
  const auto a = topFractionIndices(actual, topFraction);
  const auto p = topFractionIndices(predicted, topFraction);
  std::size_t inter = 0, i = 0, j = 0;
  while (i < a.size() && j < p.size()) {
    if (a[i] == p[j]) { ++inter; ++i; ++j; }
    else if (a[i] < p[j]) ++i;
    else ++j;
  }
  const std::size_t uni = a.size() + p.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace hcp::ml
