// serve: the paper's prediction phase as the daemon's steady state. One
// closed-loop client sends an in-process serve::Server a shuffled mix of
// predict requests over every bundled design and flow replays of the designs
// set-up cached, one request per flush window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <unistd.h>

#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "core/predictor.hpp"
#include "features/extractor.hpp"
#include "hls/design.hpp"
#include "ir/opcode.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = hcp::support::json;
namespace fc = hcp::support::flowcache;

// The paper's three evaluated combinations (Table III): set-up implements
// them once with the flow cache on, trains the served model on them and
// replays them from the cache during the pass.
const std::vector<std::string> kCachedDesigns = {"face_detection", "digit_spam",
                                                 "vision_combined"};
constexpr int kSetupReps = 3;
// Each design is asked about with and without its HLS directives (the
// paper's case study compares both), which also spreads predict costs over
// twenty points instead of ten.
constexpr int kPredictsPerVariant = 2;  // x10 designs x2 directive settings
// Five replays per cached design put the median request inside one
// request kind's cluster rather than in the gap between two.
constexpr int kReplaysPerDesign = 5;   // x3 cached designs per pass
constexpr std::size_t kTopK = 10;

struct Request {
  bool predict = true;
  std::string design;
  bool directives = true;
  std::string key() const {
    return (predict ? "predict:" : "replay:") + design +
           (directives ? "" : "/nodirectives");
  }
};

std::string requestLine(const Request& q, const std::string& id,
                        std::uint64_t flowSeed) {
  if (q.predict)
    return "{\"id\":\"" + id + "\",\"op\":\"predict\",\"design\":\"" +
           q.design + "\",\"top_k\":" + std::to_string(kTopK) +
           ",\"directives\":" + (q.directives ? "true" : "false") + "}";
  return "{\"id\":\"" + id + "\",\"op\":\"flow\",\"design\":\"" + q.design +
         "\",\"seed\":" + std::to_string(flowSeed) + "}";
}

double num(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  return m != nullptr && m->isNumber() ? m->number : -1.0;
}

bool sameHotspots(const json::Value& resp,
                  const std::vector<hcp::core::Hotspot>& want) {
  const json::Value* hs = resp.find("hotspots");
  if (hs == nullptr || !hs->isArray() || hs->array.size() != want.size())
    return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const json::Value& h = hs->array[i];
    const json::Value* fn = h.find("function");
    if (fn == nullptr || !fn->isString() || fn->str != want[i].functionName ||
        num(h, "line") != want[i].sourceLine ||
        num(h, "ops") != static_cast<double>(want[i].numOps) ||
        num(h, "mean") != want[i].meanPredicted ||
        num(h, "max") != want[i].maxPredicted)
      return false;
  }
  return true;
}

/// The fields a flow response carries, straight from a FlowResult.
struct FlowFacts {
  double wns = 0, fmax = 0, latency = 0, maxV = 0, maxH = 0, tiles = 0;
  bool operator==(const FlowFacts&) const = default;
};

FlowFacts factsOf(const hcp::core::FlowResult& f) {
  return {f.wnsNs, f.maxFrequencyMhz, static_cast<double>(f.latencyCycles),
          f.maxVCongestion, f.maxHCongestion, static_cast<double>(f.congestedTiles)};
}

FlowFacts factsOf(const json::Value& v) {
  return {num(v, "wns_ns"), num(v, "fmax_mhz"), num(v, "latency_cycles"),
          num(v, "max_v_congestion"), num(v, "max_h_congestion"),
          num(v, "congested_tiles")};
}

}  // namespace

Result runServe(const Options& opts, Tracer& tracer) {
  Result r;
  const std::string work =
      kOutDir + "/serve-" + std::to_string(::getpid());
  const std::string modelPath = work + "/model.hcp";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  hcp::core::FlowConfig config;
  config.seed = flowSeedOf(opts.seed);
  const auto device = hcp::fpga::Device::xc7z020like();

  // Set-up, repeated: implement the cached designs into a fresh flow cache,
  // then start the server (which loads the model). The first repetition also
  // trains and saves the served GBRT model on those flows; that step is not
  // part of the timed set-up, which is the daemon's own start.
  std::vector<double> setupS, modelLoadMs;
  std::map<std::string, std::vector<double>> implementMs;
  std::map<std::string, FlowFacts> stored;
  std::unique_ptr<hcp::serve::Server> server;
  std::unique_ptr<hcp::core::CongestionPredictor> direct;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string cacheDir = work + "/cache" + std::to_string(rep);
    fc::setGlobalDir(cacheDir);
    double t0 = nowSeconds();
    std::vector<hcp::apps::AppDesign> apps;
    for (const auto& d : kCachedDesigns) apps.push_back(hcp::apps::makeDesign(d));
    std::vector<double> latMs(apps.size());
    std::vector<hcp::core::FlowResult> flows =
        hcp::support::parallelMapIndex(apps.size(), [&](std::size_t i) {
          const double s0 = nowSeconds();
          auto out = hcp::core::runFlows(std::span(&apps[i], 1), device, config);
          latMs[i] = (nowSeconds() - s0) * 1e3;
          return std::move(out[0]);
        });
    double setup = nowSeconds() - t0;
    r.attempted += flows.size();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      implementMs[kCachedDesigns[i]].push_back(latMs[i]);
      stored[kCachedDesigns[i]] = factsOf(flows[i]);
    }
    if (rep == 0) {
      hcp::core::PredictorOptions po;
      po.kind = hcp::core::ModelKind::Gbrt;
      hcp::core::CongestionPredictor trainer(po);
      trainer.train(hcp::core::buildDataset(flows));
      trainer.save(modelPath);
    }
    flows.clear();

    t0 = nowSeconds();
    server.reset();
    hcp::serve::ServerConfig sc;
    sc.modelPath = modelPath;
    server = std::make_unique<hcp::serve::Server>(sc);
    setup += nowSeconds() - t0;
    setupS.push_back(setup);

    // The load the server just did, timed on its own.
    t0 = nowSeconds();
    direct = std::make_unique<hcp::core::CongestionPredictor>(
        hcp::core::CongestionPredictor::load(modelPath));
    modelLoadMs.push_back((nowSeconds() - t0) * 1e3);
  }
  fc::FlowCache* cache = fc::global();
  r.check(cache != nullptr && server->hasModel(), "server started with a model and a flow cache");

  std::vector<Request> mix;
  for (const auto& d : hcp::apps::designNames())
    for (bool directives : {true, false})
      for (int k = 0; k < kPredictsPerVariant; ++k)
        mix.push_back({true, d, directives});
  for (const auto& d : kCachedDesigns)
    for (int k = 0; k < kReplaysPerDesign; ++k) mix.push_back({false, d});
  // Expected predict responses: the same model, called directly.
  std::map<std::string, std::vector<hcp::core::Hotspot>> expected;
  for (const Request& q : mix) {
    if (!q.predict || expected.count(q.key())) continue;
    auto app = hcp::apps::makeDesign(q.design, q.directives);
    const auto design =
        hcp::hls::synthesize(std::move(app.module), app.directives, {});
    expected[q.key()] = direct->findHotspots(design, {}, kTopK);
  }
  std::mt19937_64 rng(opts.seed);

  std::vector<double> passS, opMs, predictMs, replayMs, overheadMs;
  std::map<std::string, std::vector<double>> msByKey;
  std::uint64_t replays = 0, replayHits = 0;
  double opsExtracted = 0, rowsPredicted = 0;
  TraceSummary traced;
  std::size_t passIndex = 0;
  const double deadline = nowSeconds() + opts.seconds;
  do {
    const bool tracePass = opts.trace && passIndex % 2 == 1;
    std::shuffle(mix.begin(), mix.end(), rng);
    tracer.setEnabled(tracePass);
    std::set<std::string> sampled;  // first request of each kind+design
    const double t0 = nowSeconds();
    std::int64_t root = -1;
    {
      Tracer::Scope pass(tracer, "pass", -1);
      root = pass.id();
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const Request& q = mix[i];
        std::string rid = "p";
        rid += std::to_string(passIndex);
        rid += '-';
        rid += std::to_string(i);
        const std::string line = requestLine(q, rid, config.seed);
        ++r.attempted;
        std::ostringstream out;
        double windowMs = 0.0;
        {
          Tracer::Scope req(tracer, "serve.request", root, rid);
          if (tracePass) {
            Tracer::Scope s(tracer, "serve.parse", req.id(), rid);
            r.check(hcp::serve::parseRequest(line).ok, rid + ": request parses");
          }
          Tracer::Scope s(tracer, "serve.window", req.id(), rid);
          std::istringstream in(line + "\n\n");
          const double w0 = nowSeconds();
          r.check(server->serve(in, out), rid + ": response stream intact");
          windowMs = (nowSeconds() - w0) * 1e3;
        }
        opMs.push_back(windowMs);
        (q.predict ? predictMs : replayMs).push_back(windowMs);
        msByKey[q.key()].push_back(windowMs);

        json::Value resp;
        bool ok = false;
        try {
          resp = json::parse(out.str());
          const json::Value* okv = resp.find("ok");
          ok = okv != nullptr && okv->isBool() && okv->boolean;
        } catch (const std::exception&) {
        }
        if (!ok) {
          ++r.failed;
          std::fprintf(stderr, "perfbench: %s failed: %s\n", rid.c_str(),
                       out.str().c_str());
          continue;
        }
        if (q.predict) {
          r.check(sameHotspots(resp, expected[q.key()]),
                  rid + ": predict response equals a direct findHotspots");
        } else {
          ++replays;
          const json::Value* cached = resp.find("cached");
          const bool hit = cached != nullptr && cached->isBool() && cached->boolean;
          replayHits += hit ? 1 : 0;
          r.check(hit && factsOf(resp) == stored[q.design],
                  rid + ": replay matches the flow stored in set-up");
        }

        if (!tracePass ||
            !sampled.insert(q.key()).second)
          continue;
        // Reference decomposition of the sampled request, for attribution:
        // the layer calls the server makes for it, one span each.
        double execMs = 0.0;
        const auto stage = [&](std::int64_t parent, const char* name, auto&& fn) {
          Tracer::Scope s(tracer, name, parent, rid);
          const double s0 = nowSeconds();
          fn();
          execMs += (nowSeconds() - s0) * 1e3;
        };
        auto app = hcp::apps::makeDesign(q.design, q.directives);
        if (q.predict) {
          Tracer::Scope d(tracer, "predict.direct", root, rid);
          std::unique_ptr<hcp::hls::SynthesizedDesign> design;
          stage(d.id(), "hls.synthesize", [&] {
            design = std::make_unique<hcp::hls::SynthesizedDesign>(
                hcp::hls::synthesize(std::move(app.module), app.directives, {}));
          });
          std::vector<std::vector<double>> rows;
          {
            Tracer::Scope s(tracer, "features.extract", d.id(), rid);
            const hcp::features::FeatureExtractor ex(*design, {});
            for (std::uint32_t f = 0; f < design->module->numFunctions(); ++f) {
              const auto& fn = design->module->function(f);
              for (hcp::ir::OpId op = 0; op < fn.numOps(); ++op)
                if (hcp::ir::isFunctionalUnit(fn.op(op).opcode))
                  rows.push_back(ex.extract(f, op));
            }
          }
          opsExtracted += static_cast<double>(rows.size());
          double sink = 0.0;
          {
            Tracer::Scope s(tracer, "ml.predict", d.id(), rid);
            for (const auto& row : rows)
              sink += direct->verticalModel().predict(row) +
                      direct->horizontalModel().predict(row) +
                      direct->averageModel().predict(row);
          }
          rowsPredicted += static_cast<double>(rows.size());
          r.check(std::isfinite(sink), rid + ": direct predictions are finite");
          std::vector<hcp::core::Hotspot> hs;
          stage(d.id(), "core.find_hotspots",
                [&] { hs = direct->findHotspots(*design, {}, kTopK); });
          r.check(sameHotspots(resp, hs), rid + ": traced findHotspots agrees");
        } else {
          Tracer::Scope d(tracer, "replay.direct", root, rid);
          std::string key;
          std::optional<std::string> payload;
          hcp::core::FlowResult flow;
          stage(d.id(), "core.flow_key",
                [&] { key = hcp::core::flowCacheKey(app, device, config); });
          stage(d.id(), "support.flowcache.load", [&] { payload = cache->load(key); });
          r.check(payload.has_value(), rid + ": cache entry loads");
          if (!payload) continue;
          stage(d.id(), "core.read_flow", [&] {
            std::istringstream is(*payload);
            flow = hcp::core::readFlowResult(is);
          });
          r.check(factsOf(flow) == stored[q.design],
                  rid + ": traced cache read matches set-up");
        }
        overheadMs.push_back(windowMs - execMs);
      }
    }
    passS.push_back(nowSeconds() - t0);
    tracer.setEnabled(false);
    if (tracePass) traced.add(profilePass(tracer, root));
    ++passIndex;
  } while (nowSeconds() < deadline || (opts.trace && traced.passes() == 0));

  server.reset();
  fc::setGlobalDir("");
  std::filesystem::remove_all(work);

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "serve: %zu requests/pass (%d predicts x %zu designs x 2 "
                "directive settings, %d replays x %zu cached designs) x %zu "
                "passes, 1 client, flow seed %llu",
                mix.size(), kPredictsPerVariant, hcp::apps::designNames().size(),
                kReplaysPerDesign, kCachedDesigns.size(), passS.size(),
                static_cast<unsigned long long>(config.seed));
  r.note(buf);
  std::snprintf(buf, sizeof buf,
                "predict p50 %.2f ms p95 %.2f ms (%zu samples); replay p50 "
                "%.2f ms (%zu samples); cache hits %llu of %llu replays",
                quantile(predictMs, 0.5), quantile(predictMs, 0.95),
                predictMs.size(), quantile(replayMs, 0.5), replayMs.size(),
                static_cast<unsigned long long>(replayHits),
                static_cast<unsigned long long>(replays));
  r.note(buf);
  double implementSum = 0.0, predictSum = 0.0;
  for (const auto& d : kCachedDesigns) {
    implementSum += median(implementMs[d]);
    predictSum += median(msByKey[Request{true, d}.key()]);
  }
  const double ratio = predictSum > 0 ? implementSum / predictSum : 0.0;
  std::snprintf(buf, sizeof buf,
                "predict vs implement on the cached designs: %.0f ms vs %.1f "
                "ms per suite, %.1fx",
                implementSum, predictSum, ratio);
  r.note(buf);

  if (!opts.trace) {
    r.add("setup_s", median(setupS), "s");
    r.add("pass_s", median(passS), "s");
    r.noteSample("setup_s", setupS, "s");
    r.noteSample("pass_s", passS, "s");
    r.add("op_p50_ms", quantile(opMs, 0.5), "ms");
    r.add("op_p95_ms", quantile(opMs, 0.95), "ms");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    std::snprintf(buf, sizeof buf, "op latency: one request window, %zu samples",
                  opMs.size());
    r.note(buf);
    return r;
  }

  std::vector<double> untraced;
  for (std::size_t i = 0; i < passS.size(); i += 2) untraced.push_back(passS[i]);
  traced.report(r, median(untraced) * 1e3);
  const double passes = static_cast<double>(traced.passes());
  r.add("hls.synthesize_ms", traced.perCallMs("hls.synthesize"), "ms");
  r.add("features.extract_us_per_op",
        opsExtracted > 0 ? traced.selfMs("features.extract") * passes * 1e3 / opsExtracted : 0.0,
        "us");
  r.add("ml.predict_us_per_row",
        rowsPredicted > 0 ? traced.selfMs("ml.predict") * passes * 1e3 / rowsPredicted : 0.0,
        "us");
  r.add("core.find_hotspots_ms", traced.perCallMs("core.find_hotspots"), "ms");
  r.add("support.flowcache.load_ms", traced.perCallMs("support.flowcache.load"), "ms");
  r.add("core.read_flow_ms", traced.perCallMs("core.read_flow"), "ms");
  r.add("support.flowcache.hit_ratio",
        replays > 0 ? static_cast<double>(replayHits) / static_cast<double>(replays) : 0.0,
        "ratio");
  r.add("serve.parse_us", traced.perCallMs("serve.parse") * 1e3, "us");
  r.add("serve.overhead_ms", median(overheadMs), "ms");
  r.add("ml.model_load_ms", median(modelLoadMs), "ms");
  r.add("predict_p50_ms", quantile(predictMs, 0.5), "ms");
  r.add("predict_p95_ms", quantile(predictMs, 0.95), "ms");
  r.add("replay_p50_ms", quantile(replayMs, 0.5), "ms");
  r.add("core.predict_vs_implement_x", ratio, "x");
  std::snprintf(buf, sizeof buf,
                "bases: %.0f ops extracted and %.0f rows predicted; %zu "
                "sampled requests decomposed; %llu replays",
                opsExtracted, rowsPredicted, overheadMs.size(),
                static_cast<unsigned long long>(replays));
  r.note(buf);
  return r;
}

}  // namespace perfbench
