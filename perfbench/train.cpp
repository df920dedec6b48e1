// train: `hcp_cli train --from-shards` for the three model families on the
// table-3 corpus with one design held out, then scoring on that design.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <unistd.h>

#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/predictor.hpp"
#include "core/shard_builder.hpp"
#include "ml/gbrt.hpp"
#include "ml/serialize.hpp"
#include "ml/shards.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace shards = hcp::ml::shards;
using hcp::core::ModelKind;

// Table III's suite: two designs are sharded for training, the third is
// scored as a design the models never saw. The corpus is implemented at the
// program's default flow seed in every run: Lasso stops on a tolerance and
// the MLP stops early on validation loss, so fit work depends on the data,
// and a corpus that changed with the workload seed would move fit times by
// far more than the noise. The workload seed orders the families instead.
const std::vector<std::string> kCorpus = {"digit_spam", "vision_combined"};
const std::string kHeldOut = "face_detection";
const std::vector<ModelKind> kKinds = {ModelKind::Linear, ModelKind::Gbrt,
                                       ModelKind::Ann};
const std::vector<shards::Label> kLabels = {
    shards::Label::Vertical, shards::Label::Horizontal, shards::Label::Average};
constexpr int kSetupReps = 3;

std::string kindKey(ModelKind k) {
  return k == ModelKind::Linear ? "linear" : k == ModelKind::Gbrt ? "gbrt" : "ann";
}

std::unique_ptr<hcp::ml::Regressor> makeModel(ModelKind k,
                                              const hcp::core::PredictorOptions& o) {
  if (k == ModelKind::Linear) return std::make_unique<hcp::ml::LassoRegression>(o.lasso);
  if (k == ModelKind::Gbrt) return std::make_unique<hcp::ml::Gbrt>(o.gbrt);
  return std::make_unique<hcp::ml::MlpRegressor>(o.mlp);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// ShardRowSource's visiting order over a ShardSet, with each shard load
/// under an `ml.shards.read` span, so a traced fit splits into reading and
/// fitting.
class TracedShardSource final : public hcp::ml::RowSource {
 public:
  TracedShardSource(const shards::ShardSet& set, shards::Label label,
                    Tracer& tracer, std::int64_t parent, std::string rid)
      : set_(set), label_(label), tracer_(tracer), parent_(parent),
        rid_(std::move(rid)) {}

  std::size_t size() const override { return set_.totalSamples(); }
  std::size_t numFeatures() const override { return set_.numFeatures(); }
  std::size_t reads() const { return reads_; }

  void forEach(const RowFn& fn) const override {
    std::size_t index = 0;
    visit([&](const shards::ShardData& data) {
      for (const auto& s : data.samples) fn(index++, s.features, target(s));
    });
  }

  void visitParallel(const RowFn& fn) const override {
    std::size_t base = 0;
    visit([&](const shards::ShardData& data) {
      hcp::support::parallelFor(0, data.samples.size(), 64, [&](std::size_t j) {
        const auto& s = data.samples[j];
        fn(base + j, s.features, target(s));
      });
      base += data.samples.size();
    });
  }

 private:
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (std::size_t s = 0; s < set_.numShards(); ++s) {
      if (set_.info(s).numSamples == 0) continue;
      shards::ShardData data;
      {
        Tracer::Scope span(tracer_, "ml.shards.read", parent_, rid_);
        data = set_.load(s);
      }
      ++reads_;
      fn(data);
    }
  }

  double target(const shards::ShardSample& s) const {
    return label_ == shards::Label::Vertical     ? s.vertical
           : label_ == shards::Label::Horizontal ? s.horizontal
                                                 : s.average;
  }

  const shards::ShardSet& set_;
  shards::Label label_;
  Tracer& tracer_;
  std::int64_t parent_;
  std::string rid_;
  mutable std::size_t reads_ = 0;
};

struct HeldOut {
  hcp::ml::Dataset vertical, horizontal;
};

double mae(const std::vector<double>& pred, const hcp::ml::Dataset& data) {
  double sum = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    sum += std::abs(pred[i] - data.target(i));
  return pred.empty() ? 0.0 : sum / static_cast<double>(pred.size());
}

}  // namespace

Result runTrain(const Options& opts, Tracer& tracer) {
  Result r;
  const std::string work = kOutDir + "/train-" + std::to_string(::getpid());
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const hcp::core::FlowConfig config;
  const auto device = hcp::fpga::Device::xc7z020like();
  const hcp::core::PredictorOptions baseOptions;

  // Set-up, repeated: `hcp_cli shard` on the corpus into a fresh directory
  // and the held-out design's flow and samples.
  std::vector<double> setupS;
  std::string shardDir;
  std::vector<shards::ShardInfo> infos;
  HeldOut held;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    shardDir = work + "/shards" + std::to_string(rep);
    const double t0 = nowSeconds();
    infos.clear();
    for (const auto& d : kCorpus)
      infos.push_back(hcp::core::buildShard(hcp::apps::makeDesign(d), device,
                                            config, {}, shardDir));
    const auto flow = hcp::core::runFlow(hcp::apps::makeDesign(kHeldOut), device, config);
    auto data = hcp::core::buildDataset(flow);
    setupS.push_back(nowSeconds() - t0);
    r.attempted += kCorpus.size() + 1;
    held = {std::move(data.vertical), std::move(data.horizontal)};
    r.check(held.vertical.size() > 0, "held-out design has samples");
  }

  // Traced runs also take buildShard apart once — flow, samples, write —
  // and check the shard it writes is byte-identical.
  std::vector<double> writeMs, datasetMs;
  if (opts.trace) {
    const std::string dir = work + "/traced-shards";
    for (std::size_t i = 0; i < kCorpus.size(); ++i) {
      auto flow = hcp::core::runFlow(hcp::apps::makeDesign(kCorpus[i]), device, config);
      double t0 = nowSeconds();
      const auto data = hcp::core::buildDataset(flow);
      datasetMs.push_back((nowSeconds() - t0) * 1e3);
      std::vector<shards::ShardSample> samples(data.vertical.size());
      for (std::size_t j = 0; j < samples.size(); ++j) {
        const auto& row = data.vertical.row(j);
        samples[j].features.assign(row.begin(), row.end());
        samples[j].vertical = data.vertical.target(j);
        samples[j].horizontal = data.horizontal.target(j);
        samples[j].average = data.average.target(j);
      }
      t0 = nowSeconds();
      const std::string path = shards::writeShard(
          dir, infos[i].key, {kCorpus[i], device.name(), config.seed}, samples);
      writeMs.push_back((nowSeconds() - t0) * 1e3);
      r.check(slurp(path) == slurp(infos[i].path),
              kCorpus[i] + ": traced shard build writes the same shard");
    }
  }

  const shards::ShardSet set(shardDir);
  r.check(set.numShards() == kCorpus.size() && set.totalSamples() > 0,
          "shard set holds the corpus");

  std::vector<double> passS, opMs;
  std::map<std::string, std::vector<double>> trainS;
  std::map<std::string, std::string> modelBytes;  // first untraced pass
  std::map<std::string, std::pair<double, double>> maes;
  std::vector<double> gbrtRounds, annEpochs;
  std::vector<ModelKind> order = kKinds;
  std::mt19937_64 rng(opts.seed);
  TraceSummary traced;
  std::size_t passIndex = 0;
  const double deadline = nowSeconds() + opts.seconds;
  do {
    const bool tracePass = opts.trace && passIndex % 2 == 1;
    std::shuffle(order.begin(), order.end(), rng);
    tracer.setEnabled(tracePass);
    const double t0 = nowSeconds();
    std::int64_t root = -1;
    double rounds = 0, epochs = 0;
    {
      Tracer::Scope pass(tracer, "pass", -1);
      root = pass.id();
      for (ModelKind kind : order) {
        const std::string key = kindKey(kind);
        hcp::core::PredictorOptions po = baseOptions;
        po.kind = kind;
        ++r.attempted;
        std::vector<double> pv, ph;
        std::string bytes;
        try {
          if (!tracePass) {
            hcp::core::CongestionPredictor p(po);
            const double f0 = nowSeconds();
            p.trainFromShards(set);
            const double fit = nowSeconds() - f0;
            trainS[key].push_back(fit);
            opMs.push_back(fit * 1e3);
            pv = p.verticalModel().predictAll(held.vertical);
            ph = p.horizontalModel().predictAll(held.horizontal);
            const std::string path = work + "/model-" + key + ".hcp";
            p.save(path);
            bytes = slurp(path);
          } else {
            // trainFromShards taken apart: the same three streaming fits,
            // with shard reads and fits as separate spans.
            std::vector<std::unique_ptr<hcp::ml::Regressor>> models;
            for (shards::Label label : kLabels) {
              const std::string rid = key + "/" + std::string(shards::labelName(label));
              Tracer::Scope fit(tracer, "ml.fit." + key, root, rid);
              models.push_back(makeModel(kind, po));
              models.back()->fitStreaming(
                  TracedShardSource(set, label, tracer, fit.id(), rid));
              if (kind == ModelKind::Gbrt)
                rounds += static_cast<double>(
                    static_cast<const hcp::ml::Gbrt&>(*models.back()).numTrees());
              if (kind == ModelKind::Ann)
                epochs += static_cast<double>(
                    static_cast<const hcp::ml::MlpRegressor&>(*models.back()).epochsRun());
            }
            {
              Tracer::Scope s(tracer, "ml.predict_all", root, key);
              pv = models[0]->predictAll(held.vertical);
              ph = models[1]->predictAll(held.horizontal);
            }
            Tracer::Scope s(tracer, "ml.save", root, key);
            std::ostringstream os;
            os << "hcp-predictor 1 " << hcp::core::modelKindName(kind) << "\n";
            for (const auto& m : models) hcp::ml::saveModel(*m, os);
            bytes = os.str();
          }
        } catch (const std::exception& e) {
          ++r.failed;
          std::fprintf(stderr, "perfbench: %s fit failed: %s\n", key.c_str(), e.what());
          continue;
        }
        const std::pair<double, double> m{mae(pv, held.vertical), mae(ph, held.horizontal)};
        r.check(std::isfinite(m.first) && std::isfinite(m.second),
                key + ": held-out error is finite");
        if (!modelBytes.count(key)) {
          modelBytes[key] = bytes;
          maes[key] = m;
        } else {
          r.check(bytes == modelBytes[key],
                  key + ": model bytes repeat across passes" +
                      (tracePass ? " (traced fits vs trainFromShards)" : ""));
          r.check(m == maes[key], key + ": held-out error repeats across passes");
        }
      }
    }
    passS.push_back(nowSeconds() - t0);
    tracer.setEnabled(false);
    if (tracePass) {
      traced.add(profilePass(tracer, root));
      gbrtRounds.push_back(rounds);
      annEpochs.push_back(epochs);
    }
    ++passIndex;
  } while (nowSeconds() < deadline || (opts.trace && traced.passes() == 0));
  std::filesystem::remove_all(work);

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "train: %zu samples from %zu shards (%s + %s), held out %s "
                "(%zu samples), %zu passes, %zu threads",
                set.totalSamples(), set.numShards(), kCorpus[0].c_str(),
                kCorpus[1].c_str(), kHeldOut.c_str(), held.vertical.size(),
                passS.size(), opts.threads);
  r.note(buf);
  for (ModelKind kind : kKinds) {
    const std::string key = kindKey(kind);
    r.noteSample("  train_" + key + "_s", trainS[key], "s");
    std::snprintf(buf, sizeof buf, "  %s held-out MAE V %.4f H %.4f", key.c_str(),
                  maes[key].first, maes[key].second);
    r.note(buf);
  }

  if (!opts.trace) {
    r.add("setup_s", median(setupS), "s");
    r.add("pass_s", median(passS), "s");
    r.noteSample("setup_s", setupS, "s");
    r.noteSample("pass_s", passS, "s");
    r.add("op_p50_ms", quantile(opMs, 0.5), "ms");
    r.add("op_p95_ms", quantile(opMs, 0.95), "ms");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    std::snprintf(buf, sizeof buf,
                  "op latency: one trainFromShards call, %zu samples", opMs.size());
    r.note(buf);
    return r;
  }

  std::vector<double> untraced;
  for (std::size_t i = 0; i < passS.size(); i += 2) untraced.push_back(passS[i]);
  traced.report(r, median(untraced) * 1e3);
  const double gbrtMs = traced.selfMs("ml.fit.gbrt");
  const double rounds = median(gbrtRounds);
  r.add("ml.shards.read_ms", traced.perCallMs("ml.shards.read"), "ms");
  r.add("ml.shards.reads", traced.calls("ml.shards.read"), "count");
  r.add("ml.fit_linear_ms", traced.selfMs("ml.fit.linear"), "ms");
  r.add("ml.fit_gbrt_ms", gbrtMs, "ms");
  r.add("ml.gbrt.rounds", rounds, "count");
  r.add("ml.fit_gbrt_us_per_round", rounds > 0 ? gbrtMs * 1e3 / rounds : 0.0, "us");
  r.add("ml.fit_ann_ms", traced.selfMs("ml.fit.ann"), "ms");
  r.add("ml.ann.epochs", median(annEpochs), "count");
  r.add("ml.predict_all_ms", traced.selfMs("ml.predict_all"), "ms");
  r.add("ml.save_ms", traced.selfMs("ml.save"), "ms");
  r.add("ml.shards.write_ms", median(writeMs), "ms");
  r.add("features.dataset_build_ms", median(datasetMs), "ms");
  r.add("train_linear_s", median(trainS["linear"]), "s");
  r.add("train_gbrt_s", median(trainS["gbrt"]), "s");
  r.add("train_ann_s", median(trainS["ann"]), "s");
  r.add("heldout_mae_v", maes["gbrt"].first, "%");
  r.add("heldout_mae_h", maes["gbrt"].second, "%");
  std::snprintf(buf, sizeof buf,
                "bases: %.0f shard reads/pass, %.0f GBRT rounds/pass, %zu "
                "shard writes, held-out MAE is GBRT's",
                traced.calls("ml.shards.read"), rounds, writeMs.size());
  r.note(buf);
  return r;
}

}  // namespace perfbench
