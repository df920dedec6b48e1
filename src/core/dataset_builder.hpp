// Dataset assembly (paper Fig 2, "build dataset"): joins back-traced labels
// with extracted features across one or more implemented designs, with the
// optional marginal-sample filter of §III-C1.
#pragma once

#include <span>

#include "core/flow.hpp"
#include "features/extractor.hpp"
#include "ml/dataset.hpp"

namespace hcp::core {

/// One feature matrix with three aligned label vectors (vertical,
/// horizontal, and their average — the paper's three regression targets).
struct LabeledDataset {
  ml::Dataset vertical;
  ml::Dataset horizontal;
  ml::Dataset average;
  std::vector<trace::Sample> samples;  ///< aligned with the rows
  trace::FilterStats filterStats;
};

struct DatasetOptions {
  bool applyMarginalFilter = true;
  trace::FilterConfig filter;
  features::DeviceCaps caps;
};

/// Builds the dataset of one flow result.
LabeledDataset buildDataset(const FlowResult& flow,
                            const DatasetOptions& options = {});

/// Builds and merges datasets over several flow results (the paper trains on
/// all benchmark combinations together): each flow's rows in flow order,
/// filter counts summed. This is also the paper's dataset enrichment (§III:
/// "the target design should go through the complete C-to-FPGA flow for one
/// time to generate congestion metrics which will be used to enrich the
/// dataset"): pass the target design's flow along with the others.
LabeledDataset buildDataset(std::span<const FlowResult> flows,
                            const DatasetOptions& options = {});

}  // namespace hcp::core
