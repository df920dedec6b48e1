// Regression metrics. MAE and MedAE are the paper's Table IV metrics:
// MAE = mean(|y - yhat|), MedAE = median(|y - yhat|) — robust to outliers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hcp::ml {

double meanAbsoluteError(std::span<const double> actual,
                         std::span<const double> predicted);

double medianAbsoluteError(std::span<const double> actual,
                           std::span<const double> predicted);

/// Indices of the ceil(topFraction * n) largest values (at least one when the
/// input is non-empty), with ties broken toward the lower index — fully
/// deterministic, so hotspot sets compare exactly across runs and thread
/// counts. Returned sorted ascending.
std::vector<std::size_t> topFractionIndices(std::span<const double> values,
                                            double topFraction);

/// Hotspot intersection-over-union: both maps are reduced to their
/// top-`topFraction` tiles (default top decile, the congestion-map evaluation
/// protocol) and the two index sets are compared as |A∩B| / |A∪B|. 1 when
/// the predicted hotspot set matches the actual one exactly, 0 when they are
/// disjoint. Empty inputs score 1 (nothing to miss).
double hotspotIoU(std::span<const double> actual,
                  std::span<const double> predicted,
                  double topFraction = 0.1);

}  // namespace hcp::ml
