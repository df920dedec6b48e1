// Shard format, ShardSet scanning, streaming RowSource, the
// streamed-vs-in-memory byte-identity contract and the one fit that serves
// all three labels (DESIGN.md §19).
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <sstream>

#include "core/predictor.hpp"

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/serialize.hpp"
#include "ml/shards.hpp"
#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace hcp::ml::shards {
namespace {

std::vector<ShardSample> makeSamples(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ShardSample> samples(n);
  for (ShardSample& s : samples) {
    s.features.resize(d);
    for (double& f : s.features) f = rng.uniformReal(-2, 2);
    s.vertical = 3 * s.features[0] - s.features[1] + rng.normal(0, 0.05);
    s.horizontal = -s.features[0] + 2 * s.features[2] + rng.normal(0, 0.05);
    s.average = (s.vertical + s.horizontal) / 2;
  }
  return samples;
}

ShardMeta meta(const std::string& design) {
  return ShardMeta{design, "xc7z020like", 7};
}

/// Writes `numShards` synthetic shards into `dir` and returns their keys.
std::vector<std::string> writeCorpus(const std::string& dir,
                                     std::size_t numShards, std::size_t n,
                                     std::size_t d) {
  std::vector<std::string> keys;
  for (std::size_t s = 0; s < numShards; ++s) {
    const std::string design = "design" + std::to_string(s);
    const std::string key = shardKey(design, "xc7z020like", 7, d, "salt");
    writeShard(dir, key, meta(design), makeSamples(n, d, 100 + s));
    keys.push_back(key);
  }
  return keys;
}

std::string modelBytes(const Regressor& model) {
  std::ostringstream os;
  saveModel(model, os);
  return os.str();
}

TEST(ShardKey, DeterministicAndInputSensitive) {
  const std::string base = shardKey("a", "dev", 7, 302, "salt");
  EXPECT_EQ(base, shardKey("a", "dev", 7, 302, "salt"));
  EXPECT_EQ(base.size(), 16u);
  EXPECT_NE(base, shardKey("b", "dev", 7, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev2", 7, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 8, 302, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 7, 301, "salt"));
  EXPECT_NE(base, shardKey("a", "dev", 7, 302, "salt2"));
  // Length-prefixed hashing: shifting a byte across the field boundary
  // must change the key.
  EXPECT_NE(shardKey("ab", "c", 7, 1, ""), shardKey("a", "bc", 7, 1, ""));
}

TEST(Shards, RoundTripPreservesEverything) {
  test::TempDir dir(test::uniqueStem("shards", "dir"));
  const auto samples = makeSamples(20, 5, 1);
  const std::string key = shardKey("d", "dev", 7, 5, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), samples);

  const ShardData data = readShard(path);
  EXPECT_EQ(data.info.key, key);
  EXPECT_EQ(data.info.numFeatures, 5u);
  EXPECT_EQ(data.info.numSamples, 20u);
  EXPECT_EQ(data.meta.design, "d");
  EXPECT_EQ(data.meta.device, "xc7z020like");
  EXPECT_EQ(data.meta.seed, 7u);
  ASSERT_EQ(data.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(data.samples[i].id, sampleId(key, i));
    EXPECT_EQ(data.samples[i].vertical, samples[i].vertical);
    EXPECT_EQ(data.samples[i].horizontal, samples[i].horizontal);
    EXPECT_EQ(data.samples[i].average, samples[i].average);
    EXPECT_EQ(data.samples[i].features, samples[i].features);
  }
}

TEST(Shards, WriteIsByteDeterministic) {
  test::TempDir dir(test::uniqueStem("shards", "det"));
  const auto samples = makeSamples(10, 4, 2);
  const std::string key = shardKey("d", "dev", 7, 4, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), samples);
  const std::string first = test::slurpFile(path);
  writeShard(dir.dir(), key, meta("d"), samples);
  EXPECT_EQ(test::slurpFile(path), first);
}

TEST(Shards, BytesMatchGolden) {
  // Pins the shard file byte for byte: the sealed header (key, counts,
  // payload size, FNV-1a digest), the meta lines and 17-digit samples.
  test::TempDir dir(test::uniqueStem("shards", "golden"));
  std::vector<ShardSample> samples(2);
  samples[0] = {0, 0.5, -1.25, 0.1, {1.0, -2.5, 3.75}};
  samples[1] = {0, 2.0, 0.0, 1.0 / 3.0, {0.0, 1e-3, -7.0}};
  const std::string key = shardKey("golden", "xc7z020like", 7, 3, "salt");
  const std::string path =
      writeShard(dir.dir(), key, meta("golden"), samples);
  EXPECT_EQ(test::slurpFile(path),
            "hcp-shard 1 3cc17edba07357e5 3 2 176 87a026db96c45b66\n"
            "design 6 golden\n"
            "device 11 xc7z020like\n"
            "seed 7\n"
            "sample 2069889149487483000 0.5 -1.25 0.10000000000000001 1 -2.5 "
            "3.75\n"
            "sample 4302204556455072409 2 0 0.33333333333333331 0 0.001 -7\n");
}

TEST(Shards, EmptyShardRoundTrips) {
  test::TempDir dir(test::uniqueStem("shards", "empty"));
  const std::string key = shardKey("d", "dev", 7, 0, "s");
  const std::string path = writeShard(dir.dir(), key, meta("d"), {});
  const ShardData data = readShard(path);
  EXPECT_EQ(data.info.numSamples, 0u);
  EXPECT_TRUE(data.samples.empty());
}

TEST(Shards, RejectsInconsistentFeatureCounts) {
  test::TempDir dir(test::uniqueStem("shards", "inconsistent"));
  auto samples = makeSamples(3, 4, 3);
  samples[2].features.pop_back();
  EXPECT_THROW(writeShard(dir.dir(), shardKey("d", "dev", 7, 4, "s"),
                          meta("d"), samples),
               Error);
}

// --- corruption battery -------------------------------------------------

class ShardCorruption : public ::testing::Test {
 protected:
  std::string freshShard(const std::string& tag) {
    dir_ = std::make_unique<test::TempDir>(
        test::uniqueStem("shards_corrupt", tag));
    key_ = shardKey("d", "dev", 7, 4, "s");
    return writeShard(dir_->dir(), key_, meta("d"), makeSamples(6, 4, 4));
  }

  std::unique_ptr<test::TempDir> dir_;
  std::string key_;
};

TEST_F(ShardCorruption, TruncatedPayloadRejected) {
  const std::string path = freshShard("trunc");
  const std::string bytes = test::slurpFile(path);
  test::writeRaw(path, bytes.substr(0, bytes.size() - 40));
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, FlippedPayloadByteRejected) {
  const std::string path = freshShard("flip");
  std::string bytes = test::slurpFile(path);
  bytes[bytes.size() - 10] = bytes[bytes.size() - 10] == '1' ? '2' : '1';
  test::writeRaw(path, bytes);
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, TrailingGarbageRejected) {
  const std::string path = freshShard("trailing");
  test::writeRaw(path, test::slurpFile(path) + "extra\n");
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, VersionSkewRejected) {
  const std::string path = freshShard("skew");
  std::string bytes = test::slurpFile(path);
  const std::string want = "hcp-shard 1 ";
  ASSERT_EQ(bytes.compare(0, want.size(), want), 0);
  bytes.replace(0, want.size(), "hcp-shard 2 ");
  test::writeRaw(path, bytes);
  try {
    readShard(path);
    FAIL() << "version skew not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST_F(ShardCorruption, RenamedFileRejected) {
  const std::string path = freshShard("rename");
  const std::string other =
      (std::filesystem::path(dir_->dir()) / "0123456789abcdef.shard")
          .string();
  std::filesystem::rename(path, other);
  EXPECT_THROW(readShard(other), Error);  // header key != file stem
}

TEST_F(ShardCorruption, NotAShardRejected) {
  const std::string path = freshShard("junk");
  test::writeRaw(path, "this is not a shard\n");
  EXPECT_THROW(readShard(path), Error);
}

TEST_F(ShardCorruption, ScanDetectsHeaderCorruption) {
  const std::string path = freshShard("scan");
  std::string bytes = test::slurpFile(path);
  test::writeRaw(path, "garbage " + bytes);
  EXPECT_THROW(ShardSet{dir_->dir()}, Error);
}

TEST_F(ShardCorruption, ResealedOutOfGrammarNumbersRejected) {
  // The payload is edited and sealed afresh (valid size and FNV digest), so
  // only the payload's number grammar stands between the edit and a load.
  const std::string path = freshShard("grammar");
  const std::string bytes = test::slurpFile(path);
  const std::size_t nl = bytes.find('\n');
  std::string header = bytes.substr(0, nl);
  header.erase(header.rfind(' '));
  header.erase(header.rfind(' '));
  const std::string payload = bytes.substr(nl + 1);
  const auto resealed = [&](const std::string& p) {
    return header + ' ' + std::to_string(p.size()) + ' ' +
           support::Fnv1a().bytes(p).hex() + '\n' + p;
  };
  ASSERT_EQ(resealed(payload), bytes);

  // Tokens after "sample ": <id> <vertical> <horizontal> <average> <features>.
  for (const auto& [index, token] :
       {std::pair{0, "-1"}, std::pair{4, "nan"}, std::pair{1, "1e400"}}) {
    SCOPED_TRACE(token);
    test::writeRaw(path, resealed(test::withToken(payload, "\nsample ",
                                                  index, token)));
    try {
      readShard(path);
      ADD_FAILURE() << "edited shard loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

// --- failpoints ---------------------------------------------------------

TEST(ShardFailpoints, WriteSitesRaiseIoError) {
  for (const char* site : {"shard.open", "shard.write", "shard.rename"}) {
    test::TempDir dir(test::uniqueStem("shards_fp", site));
    support::failpoint::ScopedFailpoints fp(std::string(site) + ":1");
    EXPECT_THROW(writeShard(dir.dir(), shardKey("d", "dev", 7, 3, "s"),
                            meta("d"), makeSamples(4, 3, 5)),
                 IoError)
        << site;
  }
}

TEST(ShardFailpoints, ReadSiteRaisesError) {
  test::TempDir dir(test::uniqueStem("shards_fp", "read"));
  const std::string path = writeShard(
      dir.dir(), shardKey("d", "dev", 7, 3, "s"), meta("d"),
      makeSamples(4, 3, 6));
  support::failpoint::ScopedFailpoints fp("shard.read:1");
  EXPECT_THROW(readShard(path), Error);
  EXPECT_NO_THROW(readShard(path));  // count exhausted
}

// --- ShardSet -----------------------------------------------------------

TEST(ShardSet, ScansInKeyOrderWithTotals) {
  test::TempDir dir(test::uniqueStem("shardset", "scan"));
  auto keys = writeCorpus(dir.dir(), 3, 10, 4);
  std::sort(keys.begin(), keys.end());

  const ShardSet set(dir.dir());
  EXPECT_EQ(set.numShards(), 3u);
  EXPECT_EQ(set.totalSamples(), 30u);
  EXPECT_EQ(set.numFeatures(), 4u);
  for (std::size_t i = 0; i < set.numShards(); ++i)
    EXPECT_EQ(set.info(i).key, keys[i]);
  const ShardData data = set.load(1);
  EXPECT_EQ(data.info.key, keys[1]);
}

TEST(ShardSet, MissingDirectoryRejected) {
  test::TempDir dir(test::uniqueStem("shardset", "missing"));
  EXPECT_THROW(ShardSet{dir.dir()}, Error);
}

TEST(ShardSet, EmptyShardsTolerated) {
  test::TempDir dir(test::uniqueStem("shardset", "emptyok"));
  writeCorpus(dir.dir(), 2, 8, 4);
  // An empty shard has 0 features in its header; the set must not treat
  // that as a feature-count conflict.
  writeShard(dir.dir(), shardKey("e", "dev", 7, 0, "s"), meta("e"), {});
  const ShardSet set(dir.dir());
  EXPECT_EQ(set.numShards(), 3u);
  EXPECT_EQ(set.totalSamples(), 16u);
  EXPECT_EQ(set.numFeatures(), 4u);
}

TEST(ShardSet, FeatureCountMismatchRejected) {
  test::TempDir dir(test::uniqueStem("shardset", "mismatch"));
  writeShard(dir.dir(), shardKey("a", "dev", 7, 4, "s"), meta("a"),
             makeSamples(5, 4, 8));
  writeShard(dir.dir(), shardKey("b", "dev", 7, 5, "s"), meta("b"),
             makeSamples(5, 5, 9));
  EXPECT_THROW(ShardSet{dir.dir()}, Error);
}

TEST(ShardSet, LoadDetectsFileSwappedAfterScan) {
  test::TempDir dir(test::uniqueStem("shardset", "swap"));
  writeCorpus(dir.dir(), 1, 6, 4);
  const ShardSet set(dir.dir());
  // Replace the file with a *valid* shard of different shape under the
  // same name; load() must notice the scan is stale.
  const std::string key = set.info(0).key;
  test::TempDir other(test::uniqueStem("shardset", "swap_src"));
  const std::string fresh =
      writeShard(other.dir(), key, meta("d"), makeSamples(3, 4, 10));
  std::filesystem::copy_file(
      fresh, set.info(0).path,
      std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(set.load(0), Error);
}

// --- ShardRowSource -----------------------------------------------------

TEST(ShardRowSource, MatchesMaterializedOrder) {
  test::TempDir dir(test::uniqueStem("rowsource", "order"));
  writeCorpus(dir.dir(), 2, 12, 4);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, Label::Vertical);
  EXPECT_EQ(source.size(), 24u);
  EXPECT_EQ(source.numFeatures(), 4u);

  // Canonical order = shards in key order, samples in ordinal order.
  std::vector<double> expected;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples)
      expected.push_back(row.vertical);

  std::vector<double> serial(source.size(), 0.0);
  std::size_t calls = 0;
  source.forEach([&](std::size_t i, const std::vector<double>& row, double y) {
    EXPECT_EQ(row.size(), 4u);
    serial[i] = y;
    ++calls;
  });
  EXPECT_EQ(calls, source.size());
  EXPECT_EQ(serial, expected);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    std::vector<double> parallel(source.size(), -1.0);
    source.visitParallel(
        [&](std::size_t i, const std::vector<double>&, double y) {
          parallel[i] = y;
        });
    EXPECT_EQ(parallel, expected) << threads << " threads";
  }
}

TEST(ShardRowSource, LabelSelectsTarget) {
  test::TempDir dir(test::uniqueStem("rowsource", "label"));
  writeCorpus(dir.dir(), 1, 5, 4);
  const ShardSet set(dir.dir());
  const ShardData data = set.load(0);
  for (const Label label :
       {Label::Vertical, Label::Horizontal, Label::Average}) {
    const ShardRowSource source(set, label);
    source.forEach([&](std::size_t i, const std::vector<double>&, double y) {
      const ShardSample& s = data.samples[i];
      const double want = label == Label::Vertical     ? s.vertical
                          : label == Label::Horizontal ? s.horizontal
                                                       : s.average;
      EXPECT_EQ(y, want) << labelName(label) << " sample " << i;
    });
  }
}

TEST(ShardRowSource, AllLabelsServeEveryTargetInOnePass) {
  test::TempDir dir(test::uniqueStem("rowsource", "all_labels"));
  writeCorpus(dir.dir(), 2, 7, 4);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, kAllLabels);
  ASSERT_EQ(source.numTargets(), 3u);

  std::vector<std::array<double, 3>> expected;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples)
      expected.push_back({row.vertical, row.horizontal, row.average});

  const bool wasEnabled = support::telemetry::enabled();
  support::telemetry::setEnabled(true);
  support::telemetry::reset();
  std::vector<std::array<double, 3>> serial(source.size());
  source.forEachTargets([&](std::size_t i, const std::vector<double>&,
                            std::span<const double> y) {
    ASSERT_EQ(y.size(), 3u);
    serial[i] = {y[0], y[1], y[2]};
  });
  EXPECT_EQ(support::telemetry::snapshot().counter(
                support::telemetry::Counter::ShardReads),
            set.numShards());
  support::telemetry::setEnabled(wasEnabled);
  EXPECT_EQ(serial, expected);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    std::vector<std::array<double, 3>> parallel(source.size());
    source.visitParallelTargets([&](std::size_t i, const std::vector<double>&,
                                    std::span<const double> y) {
      parallel[i] = {y[0], y[1], y[2]};
    });
    EXPECT_EQ(parallel, expected) << threads << " threads";
  }
  // The one-target visit serves the first label.
  source.forEach([&](std::size_t i, const std::vector<double>&, double y) {
    EXPECT_EQ(y, expected[i][0]) << "sample " << i;
  });
  EXPECT_THROW(ShardRowSource(set, std::span<const Label>()), Error);
}

TEST(ShardRowSource, MaterializeEqualsLoads) {
  test::TempDir dir(test::uniqueStem("rowsource", "materialize"));
  writeCorpus(dir.dir(), 2, 9, 4);
  const ShardSet set(dir.dir());
  const Dataset data = materialize(ShardRowSource(set, Label::Horizontal));
  EXPECT_EQ(data.size(), set.totalSamples());
  EXPECT_EQ(data.numFeatures(), 4u);
  std::size_t i = 0;
  for (std::size_t s = 0; s < set.numShards(); ++s)
    for (const ShardSample& row : set.load(s).samples) {
      EXPECT_EQ(data.row(i), row.features);
      EXPECT_EQ(data.target(i), row.horizontal);
      ++i;
    }
}

// --- streamed-vs-in-memory byte identity --------------------------------

/// Fits `make()` models from `numShards` synthetic shards of `n` samples:
/// the streamed fit at 1, 2 and 4 threads must write the bytes of fit() on
/// the materialized source.
void expectStreamedFitMatchesInMemory(
    const std::string& stem, std::size_t numShards, std::size_t n,
    Label label, const std::function<std::unique_ptr<Regressor>()>& make) {
  test::TempDir dir(test::uniqueStem("streamfit", stem));
  writeCorpus(dir.dir(), numShards, n, 6);
  const ShardSet set(dir.dir());
  const ShardRowSource source(set, label);

  const auto reference = make();
  reference->fit(materialize(source));
  const std::string want = modelBytes(*reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    const auto streamed = make();
    streamed->fitStreaming(source);
    EXPECT_EQ(modelBytes(*streamed), want) << threads << " threads";
  }
}

TEST(StreamingFit, LassoByteIdenticalAcrossThreadCounts) {
  expectStreamedFitMatchesInMemory("lasso", 3, 40, Label::Vertical, [] {
    return std::make_unique<LassoRegression>();
  });
}

TEST(StreamingFit, GbrtByteIdenticalAcrossThreadCounts) {
  expectStreamedFitMatchesInMemory("gbrt", 2, 50, Label::Average, [] {
    return std::make_unique<Gbrt>(
        GbrtConfig{.numEstimators = 12, .maxDepth = 3});
  });
}

TEST(StreamingFit, MlpByteIdenticalAcrossThreadCounts) {
  expectStreamedFitMatchesInMemory("mlp", 2, 45, Label::Horizontal, [] {
    return std::make_unique<MlpRegressor>(MlpConfig{
        .hiddenLayers = {8, 4}, .batchSize = 16, .maxEpochs = 12});
  });
}

// --- one fit for all three labels ----------------------------------------

using core::CongestionPredictor;
using core::ModelKind;

const ModelKind kKinds[] = {ModelKind::Linear, ModelKind::Gbrt,
                            ModelKind::Ann};

core::PredictorOptions optionsFor(ModelKind kind) {
  core::PredictorOptions options;
  options.kind = kind;
  options.gbrt.numEstimators = 40;
  options.mlp.maxEpochs = 15;
  return options;
}

std::unique_ptr<Regressor> makeModel(const core::PredictorOptions& o) {
  switch (o.kind) {
    case ModelKind::Linear: return std::make_unique<LassoRegression>(o.lasso);
    case ModelKind::Gbrt: return std::make_unique<Gbrt>(o.gbrt);
    case ModelKind::Ann: return std::make_unique<MlpRegressor>(o.mlp);
  }
  return nullptr;
}

/// The vertical, horizontal and average models' bytes, in that order.
std::array<std::string, 3> predictorBytes(const CongestionPredictor& p) {
  return {modelBytes(p.verticalModel()), modelBytes(p.horizontalModel()),
          modelBytes(p.averageModel())};
}

/// What three separate one-label fits write, one per `sources` entry.
std::array<std::string, 3> singleLabelBytes(
    const core::PredictorOptions& options,
    const std::array<const RowSource*, 3>& sources) {
  std::array<std::string, 3> bytes;
  for (std::size_t t = 0; t < 3; ++t) {
    const auto model = makeModel(options);
    model->fitStreaming(*sources[t]);
    bytes[t] = modelBytes(*model);
  }
  return bytes;
}

// trainFromShards fits all three models from one pass set; each must equal
// the single-label fit over ShardRowSource(set, label), which is what a
// per-label caller (perfbench's traced train path) runs.
TEST(MultiLabelFit, TrainFromShardsEqualsSingleLabelFits) {
  test::TempDir dir(test::uniqueStem("multilabel", "shards"));
  writeCorpus(dir.dir(), 2, 60, 6);
  const ShardSet set(dir.dir());
  const ShardRowSource v(set, Label::Vertical), h(set, Label::Horizontal),
      a(set, Label::Average);
  for (const ModelKind kind : kKinds) {
    const core::PredictorOptions options = optionsFor(kind);
    CongestionPredictor predictor(options);
    predictor.trainFromShards(set);
    EXPECT_EQ(predictorBytes(predictor),
              singleLabelBytes(options, {&v, &h, &a}))
        << core::modelKindName(kind);
  }
}

// train(LabeledDataset) goes through the same multi-label fit; it must
// equal three DatasetSource fits at any thread count, telemetry on or off.
TEST(MultiLabelFit, TrainOnDatasetEqualsSingleLabelFits) {
  test::TempDir dir(test::uniqueStem("multilabel", "dataset"));
  writeCorpus(dir.dir(), 2, 60, 6);
  const ShardSet set(dir.dir());
  core::LabeledDataset data;
  data.vertical = materialize(ShardRowSource(set, Label::Vertical));
  data.horizontal = materialize(ShardRowSource(set, Label::Horizontal));
  data.average = materialize(ShardRowSource(set, Label::Average));
  const DatasetSource v(data.vertical), h(data.horizontal), a(data.average);

  const bool wasEnabled = support::telemetry::enabled();
  for (const ModelKind kind : kKinds) {
    const core::PredictorOptions options = optionsFor(kind);
    const std::array<std::string, 3> want =
        singleLabelBytes(options, {&v, &h, &a});
    for (const bool telemetryOn : {false, true}) {
      support::telemetry::setEnabled(telemetryOn);
      for (const std::size_t threads : {1u, 2u, 4u}) {
        support::ScopedThreadLimit limit(threads);
        CongestionPredictor predictor(options);
        predictor.train(data);
        EXPECT_EQ(predictorBytes(predictor), want)
            << core::modelKindName(kind) << ", " << threads
            << " threads, telemetry " << telemetryOn;
      }
    }
  }
  support::telemetry::setEnabled(wasEnabled);
}

// One trainFromShards reads each shard once per pass its family needs:
// Lasso 3 passes (means, stds, Gram), GBRT 1 (one feature block), MLP 1.
// Reading per label again would triple these counts.
TEST(MultiLabelFit, ShardReadsPerTrainFromShards) {
  test::TempDir dir(test::uniqueStem("multilabel", "reads"));
  writeCorpus(dir.dir(), 2, 60, 6);
  const ShardSet set(dir.dir());
  const bool wasEnabled = support::telemetry::enabled();
  support::telemetry::setEnabled(true);
  for (const auto& [kind, reads] :
       {std::pair{ModelKind::Linear, 6u}, std::pair{ModelKind::Gbrt, 2u},
        std::pair{ModelKind::Ann, 2u}}) {
    support::telemetry::reset();
    CongestionPredictor predictor(optionsFor(kind));
    predictor.trainFromShards(set);
    EXPECT_EQ(support::telemetry::snapshot().counter(
                  support::telemetry::Counter::ShardReads),
              reads)
        << core::modelKindName(kind);
  }
  support::telemetry::reset();
  support::telemetry::setEnabled(wasEnabled);
}

TEST(MultiLabelFit, RejectsModelCountOtherThanTargetCount) {
  test::TempDir dir(test::uniqueStem("multilabel", "count"));
  writeCorpus(dir.dir(), 1, 20, 4);
  const ShardSet set(dir.dir());
  LassoRegression a, b;
  Gbrt c;
  Regressor* two[] = {&a, &b};
  EXPECT_THROW(fitEachTarget(ShardRowSource(set, kAllLabels), two), Error);
  EXPECT_THROW(a.fitStreaming(ShardRowSource(set, kAllLabels)), Error);
  Regressor* mixed[] = {&a, &c};
  const Label vh[] = {Label::Vertical, Label::Horizontal};
  EXPECT_THROW(fitEachTarget(ShardRowSource(set, vh), mixed), Error);
}

}  // namespace
}  // namespace hcp::ml::shards
