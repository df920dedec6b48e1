#include "ml/shards.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "support/envelope.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::ml::shards {

namespace {

namespace fs = std::filesystem;
namespace envelope = support::envelope;
namespace txt = support::txt;
using support::Fnv1a;

/// `hcp-shard <schema> <key> <numFeatures> <numSamples> <bytes> <fnv>`.
const envelope::Format kEnvelope{"hcp-shard", kSchemaVersion, 2,
                                 "shard file"};

double targetOf(Label label, const ShardSample& s) {
  switch (label) {
    case Label::Vertical: return s.vertical;
    case Label::Horizontal: return s.horizontal;
    case Label::Average: return s.average;
  }
  HCP_CHECK(false);
  return 0.0;
}

/// The content key a shard at `path` must carry: its file stem.
std::string stemOf(const std::string& path) {
  return fs::path(path).stem().string();
}

ShardInfo infoOf(envelope::Header&& h, const std::string& path) {
  ShardInfo info;
  info.key = std::move(h.key);
  info.numFeatures = h.counts[0];
  info.numSamples = h.counts[1];
  info.path = path;
  return info;
}

}  // namespace

std::string_view labelName(Label label) {
  switch (label) {
    case Label::Vertical: return "vertical";
    case Label::Horizontal: return "horizontal";
    case Label::Average: return "average";
  }
  return "?";
}

std::string shardKey(const std::string& design, const std::string& device,
                     std::uint64_t seed, std::size_t numFeatures,
                     const std::string& salt) {
  return Fnv1a()
      .u64(kSchemaVersion)
      .str(design)
      .str(device)
      .u64(seed)
      .u64(numFeatures)
      .str(salt)
      .hex();
}

std::uint64_t sampleId(const std::string& key, std::uint64_t ordinal) {
  return Fnv1a().str(key).u64(ordinal).digest();
}

std::string writeShard(const std::string& dir, const std::string& key,
                       const ShardMeta& meta,
                       const std::vector<ShardSample>& samples) {
  const std::size_t numFeatures =
      samples.empty() ? 0 : samples.front().features.size();
  for (const ShardSample& s : samples)
    HCP_CHECK_MSG(s.features.size() == numFeatures,
                  "shard sample has " << s.features.size()
                                      << " features, expected "
                                      << numFeatures);

  std::ostringstream payload;
  txt::preparePrecision(payload);
  payload << "design ";
  txt::writeStr(payload, meta.design);
  payload << "\ndevice ";
  txt::writeStr(payload, meta.device);
  payload << "\nseed " << meta.seed << "\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ShardSample& s = samples[i];
    payload << "sample " << sampleId(key, i);
    for (const double label : {s.vertical, s.horizontal, s.average}) {
      payload.put(' ');
      txt::writeNum(payload, label);
    }
    for (const double f : s.features) {
      payload.put(' ');
      txt::writeNum(payload, f);
    }
    payload << "\n";
  }

  std::error_code ec;
  fs::create_directories(dir, ec);
  HCP_CHECK_MSG(!ec, "cannot create shard directory " << dir << ": "
                                                      << ec.message());
  const std::string path = (fs::path(dir) / (key + ".shard")).string();
  txt::CheckedFileWriter writer(path, "shard");
  envelope::write(writer.stream(), kEnvelope, key,
                  {numFeatures, samples.size()}, payload.str());
  writer.commit();
  support::telemetry::count(support::telemetry::Counter::ShardWrites);
  return path;
}

ShardData readShard(const std::string& path) {
  if (support::failpoint::shouldFail("shard.read"))
    throw Error("cannot read shard " + path + " (injected shard.read fault)");
  std::optional<std::string> bytes = txt::slurp(path);
  HCP_CHECK_MSG(bytes.has_value(), "cannot open shard " << path);
  const ShardInfo info = txt::nameOnError("shard", path, [&] {
    return infoOf(envelope::unseal(*bytes, kEnvelope, stemOf(path)), path);
  });
  std::istringstream payload(std::move(*bytes));
  ShardData data =
      txt::parseWhole(payload, "shard", path, [&](std::istream& ps) {
        ShardData d;
        d.info = info;
        txt::expect(ps, "design");
        d.meta.design = txt::readStr(ps, "shard design");
        txt::expect(ps, "device");
        d.meta.device = txt::readStr(ps, "shard device");
        txt::expect(ps, "seed");
        d.meta.seed = txt::read<std::uint64_t>(ps, "shard seed");
        // Header counts are not covered by the digest: cap reservations.
        d.samples.reserve(std::min(info.numSamples, txt::kMaxReserve));
        for (std::size_t i = 0; i < info.numSamples; ++i) {
          txt::expect(ps, "sample");
          ShardSample s;
          s.id = txt::read<std::uint64_t>(ps, "sample id");
          HCP_CHECK_MSG(s.id == sampleId(info.key, i),
                        "shard sample " << i << " has id " << s.id
                                        << ", expected canonical id "
                                        << sampleId(info.key, i));
          s.vertical = txt::read<double>(ps, "sample labels");
          s.horizontal = txt::read<double>(ps, "sample labels");
          s.average = txt::read<double>(ps, "sample labels");
          s.features.reserve(std::min(info.numFeatures, txt::kMaxReserve));
          for (std::size_t f = 0; f < info.numFeatures; ++f)
            s.features.push_back(txt::read<double>(ps, "sample features"));
          d.samples.push_back(std::move(s));
        }
        return d;
      });
  support::telemetry::count(support::telemetry::Counter::ShardReads);
  return data;
}

ShardSet::ShardSet(std::string dir) : dir_(std::move(dir)) {
  HCP_CHECK_MSG(fs::is_directory(dir_),
                "shard directory does not exist: " << dir_);
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".shard") continue;
    paths.push_back(entry.path().string());
  }
  // Directory iteration order is filesystem-dependent; the sorted file name
  // (= content key) order is the canonical sample order of the set.
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    ShardInfo info = txt::nameOnError("shard", path, [&] {
      return infoOf(envelope::readHeader(path, kEnvelope, stemOf(path)), path);
    });
    if (info.numSamples > 0) {
      if (numFeatures_ == 0) {
        numFeatures_ = info.numFeatures;
      } else {
        HCP_CHECK_MSG(info.numFeatures == numFeatures_,
                      "shard feature-count mismatch in set: "
                          << path << " has " << info.numFeatures
                          << " features, set has " << numFeatures_);
      }
    }
    totalSamples_ += info.numSamples;
    infos_.push_back(std::move(info));
  }
}

ShardData ShardSet::load(std::size_t i) const {
  const ShardInfo& expected = info(i);
  ShardData data = readShard(expected.path);
  // Guards against the file changing between the scan and this load.
  HCP_CHECK_MSG(data.info.key == expected.key &&
                    data.info.numSamples == expected.numSamples &&
                    data.info.numFeatures == expected.numFeatures,
                "shard changed since the set was scanned: " << expected.path);
  return data;
}

ShardRowSource::ShardRowSource(const ShardSet& set,
                               std::span<const Label> labels)
    : set_(&set), numLabels_(labels.size()) {
  HCP_CHECK_MSG(!labels.empty() && labels.size() <= labels_.size(),
                "a shard source serves 1 to " << labels_.size()
                                              << " labels, got "
                                              << labels.size());
  std::copy(labels.begin(), labels.end(), labels_.begin());
}

template <typename Fn>
void ShardRowSource::visit(bool parallel, const Fn& fn) const {
  std::size_t base = 0;
  for (std::size_t s = 0; s < set_->numShards(); ++s) {
    if (set_->info(s).numSamples == 0) continue;
    const ShardData data = set_->load(s);
    const auto body = [&](std::size_t j) { fn(base + j, data.samples[j]); };
    if (parallel)
      support::parallelFor(0, data.samples.size(), 64, body);
    else
      for (std::size_t j = 0; j < data.samples.size(); ++j) body(j);
    base += data.samples.size();
  }
}

void ShardRowSource::forEach(const RowFn& fn) const {
  visit(false, [&](std::size_t i, const ShardSample& s) {
    fn(i, s.features, targetOf(labels_[0], s));
  });
}

void ShardRowSource::visitParallel(const RowFn& fn) const {
  visit(true, [&](std::size_t i, const ShardSample& s) {
    fn(i, s.features, targetOf(labels_[0], s));
  });
}

void ShardRowSource::visitTargets(bool parallel, const TargetsFn& fn) const {
  visit(parallel, [&](std::size_t i, const ShardSample& s) {
    std::array<double, kAllLabels.size()> y{};
    for (std::size_t t = 0; t < numLabels_; ++t)
      y[t] = targetOf(labels_[t], s);
    fn(i, s.features, std::span<const double>(y.data(), numLabels_));
  });
}

}  // namespace hcp::ml::shards
