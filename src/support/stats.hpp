// Small statistics helpers shared by the back-trace label filter, the ML
// metrics and the Table III summary rows.
#pragma once

#include <span>

namespace hcp {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> v);

/// Median (average of the two middle elements for even sizes).
/// Does not modify the input. 0 for an empty span.
double median(std::span<const double> v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> v, double p);

double minOf(std::span<const double> v);
double maxOf(std::span<const double> v);

}  // namespace hcp
