#include "support/stats.hpp"

#include <algorithm>
#include <vector>

#include "support/error.hpp"

namespace hcp {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::span<const double> v) {
  if (v.empty()) return 0.0;
  std::vector<double> c(v.begin(), v.end());
  const std::size_t mid = c.size() / 2;
  std::nth_element(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(mid),
                   c.end());
  double hi = c[mid];
  if (c.size() % 2 == 1) return hi;
  double lo = *std::max_element(
      c.begin(), c.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::span<const double> v, double p) {
  HCP_CHECK(!v.empty());
  HCP_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> c(v.begin(), v.end());
  std::sort(c.begin(), c.end());
  if (c.size() == 1) return c[0];
  const double rank = p / 100.0 * static_cast<double>(c.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, c.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return c[lo] + frac * (c[hi] - c[lo]);
}

double minOf(std::span<const double> v) {
  HCP_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double maxOf(std::span<const double> v) {
  HCP_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

}  // namespace hcp
