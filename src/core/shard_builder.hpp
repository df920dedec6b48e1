// Shard building: one design's complete flow -> labeled samples -> one
// content-addressed shard file (DESIGN.md §19).
//
// buildShard is the out-of-core counterpart of runFlows + buildDataset: it
// runs ONE design's flow, extracts its labeled samples, writes them to disk
// and drops everything before the next design starts — peak memory is one
// flow plus one design's samples, independent of corpus size. The shard key
// salts in the flow cache key and the dataset options, so a shard is
// re-created (under a new name) whenever any input that could change its
// samples changes, and an up-to-date shard is simply found by name.
#pragma once

#include <string>

#include "core/dataset_builder.hpp"
#include "ml/shards.hpp"

namespace hcp::core {

/// Runs the full flow for `app`, builds its labeled dataset and writes it
/// as one shard in `dir`. Returns the written shard's header info. The
/// flow result is released before returning. Throws hcp::IoError on write
/// failure. A design whose samples are all filtered away still produces a
/// (valid, empty) shard, so downstream tooling can tell "processed, no
/// samples" from "never processed".
ml::shards::ShardInfo buildShard(apps::AppDesign&& app,
                                 const fpga::Device& device,
                                 const FlowConfig& config,
                                 const DatasetOptions& options,
                                 const std::string& dir);

}  // namespace hcp::core
