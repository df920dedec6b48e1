// Content-addressed on-disk dataset shards (ROADMAP item 5; DESIGN.md §19).
//
// A shard is one design+device+seed's worth of labeled training samples —
// the feature vector plus all three congestion labels (vertical,
// horizontal, average) per sample, stored once instead of as the three
// duplicated in-memory Datasets. Shards make the corpus scale past RAM:
// training streams one shard at a time through ml::RowSource
// (sample_source.hpp), and the streamed models are byte-identical to the
// in-memory ones.
//
// File format (`<dir>/<key>.shard`): the sealed envelope of
// support/envelope.hpp (magic `hcp-shard`, counts: features and samples,
// expected key: the file stem), checked before any payload parsing, around
// a text payload (support/textio.hpp: 17-digit doubles, length-prefixed
// strings, loud failures):
//
//   design <len> <bytes>\n
//   device <len> <bytes>\n
//   seed <seed>\n
//   sample <id> <v> <h> <avg> <f0> ... <f(numFeatures-1)>\n   (x numSamples)
//
// A corrupt shard is an hcp::Error naming the file and never leaks
// half-parsed samples into a training run.
//
// Content addressing: the key digests the schema version, design, device,
// seed, feature count and a caller-provided salt (core::buildShard passes
// the flow cache key plus the dataset-filter options, so the key pins every
// input the samples depend on). Sample ids are derived from (key, ordinal),
// which makes them stable across processes and machines; a read checks every
// id against its canonical value.
//
// Writes go through CheckedFileWriter under failpoint site "shard"
// (shard.open / shard.write / shard.rename), atomic temp + rename; reads
// consult "shard.read". Failure policy is the artifact contract: IoError
// propagates (exit 5 in the tools), corrupt content is hcp::Error (exit 1).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/sample_source.hpp"

namespace hcp::ml::shards {

/// Bump when the shard envelope or payload layout changes incompatibly.
/// Participates in both the header and the content key, so a bump orphans
/// (and loudly rejects) every old shard.
inline constexpr std::uint32_t kSchemaVersion = 1;

/// Which of the three labels a ShardRowSource serves as a target.
enum class Label { Vertical, Horizontal, Average };

/// Every label, in the order the predictor's models list them.
inline constexpr std::array<Label, 3> kAllLabels = {
    Label::Vertical, Label::Horizontal, Label::Average};

std::string_view labelName(Label label);

/// One labeled sample: the shared feature row plus all three targets.
struct ShardSample {
  std::uint64_t id = 0;  ///< stable id; writeShard assigns, readShard checks
  double vertical = 0.0;
  double horizontal = 0.0;
  double average = 0.0;
  std::vector<double> features;
};

/// Shard provenance, stored in the payload.
struct ShardMeta {
  std::string design;
  std::string device;
  std::uint64_t seed = 0;
};

/// Header-level identity, known without reading the payload.
struct ShardInfo {
  std::string key;  ///< 16-char hex content key (also the file stem)
  std::size_t numFeatures = 0;
  std::size_t numSamples = 0;
  std::string path;
};

/// A fully loaded and validated shard.
struct ShardData {
  ShardInfo info;
  ShardMeta meta;
  std::vector<ShardSample> samples;
};

/// Content key of a shard (16-char lower-case hex). `salt` carries every
/// upstream input not named explicitly (core passes the flow cache key and
/// the filter configuration digest).
std::string shardKey(const std::string& design, const std::string& device,
                     std::uint64_t seed, std::size_t numFeatures,
                     const std::string& salt);

/// Stable id of sample `ordinal` within the shard `key`.
std::uint64_t sampleId(const std::string& key, std::uint64_t ordinal);

/// Writes `<dir>/<key>.shard` atomically (creating `dir` if needed) and
/// returns its path. Sample ids are assigned canonically from (key,
/// ordinal); every row must have `numFeatures(samples)` features. Throws
/// hcp::IoError on write failure (failpoint sites shard.open, shard.write,
/// shard.rename).
std::string writeShard(const std::string& dir, const std::string& key,
                       const ShardMeta& meta,
                       const std::vector<ShardSample>& samples);

/// Reads and fully validates one shard file. Throws hcp::Error on any
/// malformed shape (see file comment) and hcp::IoError when the file
/// cannot be opened (failpoint site shard.read).
ShardData readShard(const std::string& path);

/// A directory of shards, scanned once (headers only) in deterministic
/// filename order. The scan validates header shape and feature-count
/// consistency across shards; payloads are validated per load().
class ShardSet {
 public:
  explicit ShardSet(std::string dir);

  const std::string& dir() const { return dir_; }
  std::size_t numShards() const { return infos_.size(); }
  std::size_t totalSamples() const { return totalSamples_; }
  /// Common feature width (0 when the set is empty).
  std::size_t numFeatures() const { return numFeatures_; }
  const ShardInfo& info(std::size_t i) const { return infos_.at(i); }

  /// Loads shard `i` with full payload validation.
  ShardData load(std::size_t i) const;

 private:
  std::string dir_;
  std::vector<ShardInfo> infos_;
  std::size_t totalSamples_ = 0;
  std::size_t numFeatures_ = 0;
};

/// Bounded-memory RowSource over a shard set: one shard resident at a
/// time, visited in set order, serving one label or several as the
/// targets. Every pass reads each non-empty shard once, whatever the
/// number of targets. The size comes from the scanned headers, so
/// construction reads no payloads.
class ShardRowSource final : public RowSource {
 public:
  /// Serves `label` as the one target.
  explicit ShardRowSource(const ShardSet& set, Label label = Label::Average)
      : set_(&set), labels_{label}, numLabels_(1) {}
  /// Serves `labels` as the targets, in that order (forEach serves the
  /// first): kAllLabels feeds one fit of all three models.
  ShardRowSource(const ShardSet& set, std::span<const Label> labels);

  std::size_t size() const override { return set_->totalSamples(); }
  std::size_t numFeatures() const override { return set_->numFeatures(); }
  std::size_t numTargets() const override { return numLabels_; }
  void forEach(const RowFn& fn) const override;
  void visitParallel(const RowFn& fn) const override;
  void forEachTargets(const TargetsFn& fn) const override {
    visitTargets(false, fn);
  }
  void visitParallelTargets(const TargetsFn& fn) const override {
    visitTargets(true, fn);
  }

 private:
  /// Loads each non-empty shard in turn and calls fn(index, sample) for its
  /// samples, serially or on the pool.
  template <typename Fn>
  void visit(bool parallel, const Fn& fn) const;
  void visitTargets(bool parallel, const TargetsFn& fn) const;

  const ShardSet* set_;
  std::array<Label, kAllLabels.size()> labels_{};
  std::size_t numLabels_;
};

}  // namespace hcp::ml::shards
