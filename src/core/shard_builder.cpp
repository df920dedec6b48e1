#include "core/shard_builder.hpp"

#include <utility>

#include "core/flow_serialize.hpp"
#include "features/feature_registry.hpp"
#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hcp::core {

namespace {

/// Digest of every DatasetOptions field the samples depend on. Folded into
/// the shard salt so a filter-config change re-keys the shard.
std::string optionsDigest(const DatasetOptions& options) {
  return support::Fnv1a()
      .u64(options.applyMarginalFilter ? 1 : 0)
      .u64(options.filter.minGroupSize)
      .f64(options.filter.labelFraction)
      .f64(options.filter.minRadius)
      .f64(options.caps.lut)
      .f64(options.caps.ff)
      .f64(options.caps.dsp)
      .f64(options.caps.bram)
      .hex();
}

}  // namespace

ml::shards::ShardInfo buildShard(apps::AppDesign&& app,
                                 const fpga::Device& device,
                                 const FlowConfig& config,
                                 const DatasetOptions& options,
                                 const std::string& dir) {
  HCP_SPAN("build_shard");
  // Everything the samples depend on, captured before the app moves into
  // the flow: the flow cache key already digests the design, device,
  // synthesis options, PAR config and seed.
  const std::string designName = app.name;
  const std::string salt =
      flowCacheKey(app, device, config) + optionsDigest(options);

  ml::shards::ShardMeta meta;
  meta.design = designName;
  meta.device = device.name();
  meta.seed = config.seed;

  std::vector<ml::shards::ShardSample> samples;
  std::size_t numFeatures = features::kNumFeatures;
  {
    // Scope the flow result so it is released before the shard write —
    // buildShard's peak memory is one design's flow, never the corpus.
    const FlowResult flow = runFlow(std::move(app), device, config);
    const LabeledDataset data = buildDataset(flow, options);
    if (data.vertical.size() > 0) numFeatures = data.vertical.numFeatures();
    samples.reserve(data.vertical.size());
    for (std::size_t i = 0; i < data.vertical.size(); ++i) {
      ml::shards::ShardSample s;
      const auto& row = data.vertical.row(i);
      s.features.assign(row.begin(), row.end());
      s.vertical = data.vertical.target(i);
      s.horizontal = data.horizontal.target(i);
      s.average = data.average.target(i);
      samples.push_back(std::move(s));
    }
  }

  const std::string key = ml::shards::shardKey(designName, meta.device,
                                               config.seed, numFeatures, salt);
  ml::shards::ShardInfo info;
  info.key = key;
  info.numFeatures = numFeatures;
  info.numSamples = samples.size();
  info.path = ml::shards::writeShard(dir, key, meta, samples);
  return info;
}

}  // namespace hcp::core
