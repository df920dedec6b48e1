// hcp_cli — command-line driver for the library.
//
//   hcp_cli flow <design> [options]
//       run the full C-to-FPGA flow and print the implementation summary
//   hcp_cli train <model.hcp> <design> [<design> ...] [--model gbrt|ann|linear]
//       run flows (concurrently), build the dataset and save a predictor
//   hcp_cli shard <design> [<design> ...] --shard-dir DIR
//       run flows one design at a time and write each design's labeled
//       samples as a content-addressed dataset shard (see README "Dataset
//       sharding"); peak memory is one design's flow
//   hcp_cli train --from-shards <model.hcp> --shard-dir DIR
//       train a predictor by streaming the shards (bounded memory,
//       byte-identical model to the in-memory path)
//   hcp_cli predict <model.hcp> <design>
//       HLS-synthesize the design (no PAR) and print predicted hotspots
//   hcp_cli advise <model.hcp> <design>
//       predict + print congestion-resolution hints
//   hcp_cli train-map <map.hcp> <design> [<design> ...]
//           [--topology tilelinear|conv] [--epochs N]
//       run flows, extract per-tile grid features and train a congestion-
//       *map* model (full V/H heat map, not per-op scalars)
//   hcp_cli predict-map <map.hcp> <design> [--map-out FILE]
//       synthesize + pack + place (no routing), predict the V/H congestion
//       maps and print them; --map-out writes the map artifact
//   hcp_cli dump-ir <design>
//       print the post-directive IR of the design's top module
//   hcp_cli dump-verilog <design>
//       print the generated structural netlist as Verilog
//   hcp_cli list
//       list the bundled benchmark designs
//   hcp_cli compare-reports BASE.json NEW.json [--max-wall-regress PCT]
//           [--require-counters-equal] [--bench-out FILE]
//       diff two run reports (spans, counters, histograms) and exit
//       nonzero on regression — the regression gate. With --max-wall-regress,
//       total_wall_ms may grow by at most PCT percent; with
//       --require-counters-equal, every counter total and histogram
//       observation count must match exactly. --bench-out writes a
//       machine-readable summary.
//
// Common options:
//   --seed N          master seed for the stochastic stages (default 42)
//   --threads N       cap the thread pool (default: HCP_THREADS or all cores)
//   --report FILE     write a JSON run report (spans, counters, histograms,
//                     metadata); HCP_REPORT is the fallback
//   --trace FILE      write a Chrome trace-event timeline (open in
//                     chrome://tracing or https://ui.perfetto.dev);
//                     HCP_TRACE is the fallback
//   --cache DIR       memoize flow results on disk (content-addressed; see
//                     README "Flow cache"); HCP_CACHE is the fallback
//   --failpoints SPEC arm named fault-injection sites, e.g.
//                     flowcache.store:1 or model.rename (see README "Fault
//                     injection"); HCP_FAILPOINTS is the fallback
//   --no-directives   synthesize without the paper's pragma set
//   --model KIND      predictor kind for `train`: gbrt (default), ann, linear
//   --shard-dir DIR   dataset shard directory for `shard` and
//                     `train --from-shards`; HCP_SHARDS is the fallback
//   --topology KIND   map-model topology for `train-map`: conv (default) or
//                     tilelinear
//   --epochs N        SGD epochs for `train-map` (default 40)
//   --map-out FILE    where `predict-map` writes the map artifact
//
// Exit codes: 0 success, 1 flow/model error (hcp::Error) or compare-reports
// regression, 2 usage error, 3 unexpected internal error (any other
// std::exception), 4 compare-reports malformed input / schema mismatch,
// 5 a requested artifact (model save, --report, --trace, CSV, --bench-out)
// could not be written (hcp::IoError; the message names the path — no
// partial file is left behind).
//
// <design> is one of: face_detection, face_detection_noinline,
// face_detection_replicated, digit_recognition, spam_filter, digit_spam,
// bnn, rendering_3d, optical_flow, vision_combined.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "core/shard_builder.hpp"
#include "core/map_predictor.hpp"
#include "core/predictor.hpp"
#include "core/resolver.hpp"
#include "ir/printer.hpp"
#include "rtl/verilog.hpp"
#include "support/env.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/report_diff.hpp"
#include "support/signals.hpp"
#include "support/telemetry.hpp"
#include "support/tracing.hpp"

using namespace hcp;

namespace {

/// The shared registry builds the design; hcp_cli keeps its historical
/// usage-error contract (exit 2, not exit 1) for a mistyped design name.
apps::AppDesign makeDesign(const std::string& name, bool withDirectives) {
  if (!apps::isKnownDesign(name)) {
    std::fprintf(stderr, "unknown design '%s' (try: hcp_cli list)\n",
                 name.c_str());
    std::exit(2);
  }
  return apps::makeDesign(name, withDirectives);
}

int usage() {
  std::fprintf(stderr,
               "usage: hcp_cli <flow|train|shard|predict|advise|train-map|"
               "predict-map|dump-ir|dump-verilog|list|compare-reports> ..."
               "\n(see the header of tools/hcp_cli.cpp for details)\n");
  return 2;
}

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "hcp_cli: %s\n", message.c_str());
  std::exit(2);
}

/// Flushes stdout and surfaces any accumulated write error (EPIPE from a
/// closed pipe, ENOSPC on a redirect, ...) as hcp::IoError — exit 5, like
/// any other artifact the user asked for and did not get. SIGPIPE is
/// ignored at startup so the failed write reaches this check instead of
/// killing the process. Returns 0 for `return checkStdout();` call sites.
int checkStdout() {
  if (std::fflush(stdout) != 0 || std::ferror(stdout))
    throw IoError("write to <stdout> failed: " +
                      std::string(std::strerror(errno)),
                  "<stdout>");
  return 0;
}

/// Strict unsigned parse for flag values: the whole token must be digits.
/// `--seed abc` or `--threads 4x` is a usage error, not silently zero.
std::uint64_t parseUint(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE)
    usageError(std::string(flag) + " expects a non-negative integer, got '" +
               text + "'");
  return static_cast<std::uint64_t>(v);
}

struct Args {
  std::vector<std::string> positional;
  std::uint64_t seed = 42;
  bool directives = true;
  std::string model = "gbrt";
  std::string topology = "conv";
  std::uint64_t epochs = 40;
  std::string mapOut;       ///< empty = predict-map prints only
  std::size_t threads = 0;  ///< 0 = leave the default limit in place
  std::string report;       ///< empty = no run report
  std::string trace;        ///< empty = no trace timeline
  std::string cache;        ///< empty = flow caching off
  std::string shardDir;     ///< dataset shard directory (HCP_SHARDS fallback)
  bool fromShards = false;  ///< `train --from-shards`
};

Args parse(int argc, char** argv, int first) {
  Args args;
  auto value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) usageError(std::string(flag) + " expects a value");
    return argv[++i];
  };
  auto nonEmpty = [&](int& i, const char* flag) -> const char* {
    const char* v = value(i, flag);
    if (*v == '\0') usageError(std::string(flag) + " expects a non-empty value");
    return v;
  };
  // `--flag V` or `--flag=V` into `out`, non-empty either way; false when
  // `a` is neither form of `flag`.
  auto pathFlag = [&](int& i, const std::string& a, const std::string& flag,
                      std::string& out) {
    if (a == flag) {
      out = nonEmpty(i, flag.c_str());
    } else if (a.rfind(flag + "=", 0) == 0) {
      out = a.substr(flag.size() + 1);
      if (out.empty()) usageError(flag + " expects a non-empty value");
    } else {
      return false;
    }
    return true;
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed") {
      args.seed = parseUint("--seed", value(i, "--seed"));
    } else if (a == "--threads") {
      args.threads =
          static_cast<std::size_t>(parseUint("--threads", value(i, "--threads")));
      if (args.threads == 0) usageError("--threads expects N >= 1");
    } else if (pathFlag(i, a, "--report", args.report) ||
               pathFlag(i, a, "--trace", args.trace) ||
               pathFlag(i, a, "--cache", args.cache) ||
               pathFlag(i, a, "--shard-dir", args.shardDir)) {
      // Stored by pathFlag.
    } else if (a == "--from-shards") {
      args.fromShards = true;
    } else if (a == "--failpoints") {
      // Already applied by failpoint::initFromArgs at the top of run();
      // consume the value so it is not mistaken for a positional.
      (void)nonEmpty(i, "--failpoints");
    } else if (a.rfind("--failpoints=", 0) == 0) {
      // Already applied by failpoint::initFromArgs.
    } else if (a == "--no-directives") {
      args.directives = false;
    } else if (a == "--model") {
      args.model = value(i, "--model");
    } else if (a == "--topology") {
      args.topology = value(i, "--topology");
      if (args.topology != "tilelinear" && args.topology != "conv")
        usageError("--topology expects tilelinear or conv, got '" +
                   args.topology + "'");
    } else if (a == "--epochs") {
      args.epochs = parseUint("--epochs", value(i, "--epochs"));
      if (args.epochs == 0) usageError("--epochs expects N >= 1");
    } else if (a == "--map-out") {
      args.mapOut = nonEmpty(i, "--map-out");
    } else if (a.rfind("--", 0) == 0) {
      usageError("unknown option '" + a + "' (see hcp_cli usage)");
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.report.empty()) {
    if (const char* env = std::getenv("HCP_REPORT")) args.report = env;
  }
  if (args.trace.empty()) {
    if (const char* env = std::getenv("HCP_TRACE")) args.trace = env;
  }
  if (args.cache.empty()) {
    if (const char* env = std::getenv("HCP_CACHE")) args.cache = env;
  }
  if (args.shardDir.empty()) {
    if (const char* env = std::getenv("HCP_SHARDS")) args.shardDir = env;
  }
  return args;
}

/// `compare-reports BASE.json NEW.json [flags]` — flag parsing is local
/// because the common Args flags (seed/threads/model) make no sense here.
int runCompareReports(int argc, char** argv) {
  std::string base, fresh;
  support::report_diff::Options opts;
  auto value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) usageError(std::string(flag) + " expects a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--max-wall-regress") {
      // Strict parse: the old raw strtod accepted "nan" (which made the
      // regression gate vacuously pass — NaN compares false), "inf", hex
      // floats and trailing garbage like "400%".
      const char* text = value(i, "--max-wall-regress");
      const std::optional<double> pct = support::env::parseF64(text);
      if (!pct || *pct < 0.0)
        usageError(
            "--max-wall-regress expects a non-negative percentage, got '" +
            std::string(text) + "'");
      opts.maxWallRegressPct = *pct;
    } else if (a == "--require-counters-equal") {
      opts.requireCountersEqual = true;
    } else if (a == "--bench-out") {
      opts.benchOutPath = value(i, "--bench-out");
      if (opts.benchOutPath.empty())
        usageError("--bench-out expects a non-empty value");
    } else if (a == "--failpoints") {
      (void)value(i, "--failpoints");  // applied by failpoint::initFromArgs
    } else if (a.rfind("--failpoints=", 0) == 0) {
      // Applied by failpoint::initFromArgs.
    } else if (a.rfind("--", 0) == 0) {
      usageError("unknown option '" + a + "' (see hcp_cli usage)");
    } else if (base.empty()) {
      base = a;
    } else if (fresh.empty()) {
      fresh = a;
    } else {
      usageError("compare-reports takes exactly two report files");
    }
  }
  if (base.empty() || fresh.empty())
    usageError("compare-reports needs BASE.json and NEW.json");
  return support::report_diff::compareReportFiles(base, fresh, opts,
                                                 std::cout);
}

core::FlowResult runNamedFlow(const std::string& design, const Args& args,
                              const fpga::Device& device) {
  core::FlowConfig cfg;
  cfg.seed = args.seed;
  std::fprintf(stderr, "[hcp] running flow for %s...\n", design.c_str());
  return core::runFlow(makeDesign(design, args.directives), device, cfg);
}

void printSummary(const core::FlowResult& flow) {
  std::printf("design          : %s\n", flow.name.c_str());
  std::printf("cells / nets    : %zu / %zu\n", flow.rtl.netlist.numCells(),
              flow.rtl.netlist.numNets());
  std::printf("latency         : %llu cycles\n",
              static_cast<unsigned long long>(flow.latencyCycles));
  std::printf("WNS / Fmax      : %.3f ns / %.1f MHz\n", flow.wnsNs,
              flow.maxFrequencyMhz);
  std::printf("max congestion  : V %.1f%%  H %.1f%%\n", flow.maxVCongestion,
              flow.maxHCongestion);
  std::printf("tiles over 100%% : %zu\n", flow.congestedTiles);
  std::printf("samples traced  : %zu\n", flow.traced.samples.size());
}

int run(int argc, char** argv) {
  const std::string cmd = argv[1];
  // Arm fault injection first: every later stage (including compare-reports'
  // --bench-out) consults its failpoints through this one configuration.
  support::failpoint::initFromArgs(argc, argv);

  if (cmd == "list") {
    for (const auto& d : apps::designNames()) std::printf("%s\n", d.c_str());
    return checkStdout();
  }
  if (cmd == "compare-reports") return runCompareReports(argc, argv);

  const auto device = fpga::Device::xc7z020like();
  const Args args = parse(argc, argv, 2);
  if (args.fromShards && cmd != "train")
    usageError("--from-shards only applies to train");
  if (args.threads > 0) support::setThreadLimit(args.threads);
  if (!args.report.empty()) support::telemetry::setEnabled(true);
  if (!args.trace.empty()) support::tracing::arm();
  if (!args.cache.empty()) support::flowcache::setGlobalDir(args.cache);
  const auto start = support::telemetry::detail::nowNs();

  std::vector<std::string> reportDesigns;
  int code = -1;  // -1 = unknown command

  if (cmd == "flow") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    printSummary(runNamedFlow(args.positional[0], args, device));
    code = 0;
  } else if (cmd == "shard") {
    if (args.positional.empty()) return usage();
    if (args.shardDir.empty())
      usageError("shard needs --shard-dir DIR (or HCP_SHARDS)");
    core::FlowConfig cfg;
    cfg.seed = args.seed;
    // Designs run serially on purpose: sharding exists so that peak memory
    // is one design's flow, never the corpus.
    std::size_t total = 0;
    for (const auto& name : args.positional) {
      reportDesigns.push_back(name);
      std::fprintf(stderr, "[hcp] sharding %s...\n", name.c_str());
      const ml::shards::ShardInfo info = core::buildShard(
          makeDesign(name, args.directives), device, cfg, {}, args.shardDir);
      std::printf("%s  %-28s %6zu samples x %zu features\n", info.key.c_str(),
                  name.c_str(), info.numSamples, info.numFeatures);
      total += info.numSamples;
    }
    std::printf("wrote %zu shard%s (%zu samples) to %s\n",
                args.positional.size(),
                args.positional.size() == 1 ? "" : "s", total,
                args.shardDir.c_str());
    code = 0;
  } else if (cmd == "train") {
    core::PredictorOptions opts;
    if (args.model == "linear") opts.kind = core::ModelKind::Linear;
    else if (args.model == "ann") opts.kind = core::ModelKind::Ann;
    else if (args.model == "gbrt") opts.kind = core::ModelKind::Gbrt;
    else return usage();

    if (args.fromShards) {
      if (args.positional.size() != 1)
        usageError(
            "train --from-shards takes exactly one positional argument "
            "(the model path) — designs come from the shard directory");
      if (args.shardDir.empty())
        usageError("train --from-shards needs --shard-dir DIR (or HCP_SHARDS)");
      const std::string modelPath = args.positional[0];
      const ml::shards::ShardSet set(args.shardDir);
      if (set.totalSamples() == 0)
        usageError("training dataset is empty: " + args.shardDir + " holds " +
                   std::to_string(set.numShards()) +
                   " shard(s) with 0 samples total (run `hcp_cli shard "
                   "<design>... --shard-dir " +
                   args.shardDir + "` first)");
      std::fprintf(stderr,
                   "[hcp] training %s on %zu samples streamed from %zu "
                   "shard%s...\n",
                   args.model.c_str(), set.totalSamples(), set.numShards(),
                   set.numShards() == 1 ? "" : "s");
      core::CongestionPredictor predictor(opts);
      predictor.trainFromShards(set);
      predictor.save(modelPath);
      std::printf("saved %s predictor to %s (%zu samples from %zu shards)\n",
                  args.model.c_str(), modelPath.c_str(), set.totalSamples(),
                  set.numShards());
      code = 0;
    } else {
      if (args.positional.size() < 2) return usage();
      const std::string modelPath = args.positional[0];
      std::vector<apps::AppDesign> designs;
      for (std::size_t i = 1; i < args.positional.size(); ++i) {
        reportDesigns.push_back(args.positional[i]);
        designs.push_back(makeDesign(args.positional[i], args.directives));
      }
      core::FlowConfig cfg;
      cfg.seed = args.seed;
      std::fprintf(stderr, "[hcp] running %zu flow%s (%zu thread%s)...\n",
                   designs.size(), designs.size() == 1 ? "" : "s",
                   support::threadLimit(),
                   support::threadLimit() == 1 ? "" : "s");
      const auto flows = core::runFlows(designs, device, cfg);
      const auto dataset = core::buildDataset(flows, {});
      if (dataset.vertical.size() == 0)
        usageError("training dataset is empty: 0 samples survived the "
                   "back-trace filter across " +
                   std::to_string(flows.size()) +
                   " design(s) — train() would have nothing to fit");
      core::CongestionPredictor predictor(opts);
      std::fprintf(stderr, "[hcp] training %s on %zu samples...\n",
                   args.model.c_str(), dataset.vertical.size());
      predictor.train(dataset);
      predictor.save(modelPath);
      std::printf("saved %s predictor to %s (%zu samples)\n",
                  args.model.c_str(), modelPath.c_str(),
                  dataset.vertical.size());
      code = 0;
    }
  } else if (cmd == "predict" || cmd == "advise") {
    if (args.positional.size() != 2) return usage();
    reportDesigns = {args.positional[1]};
    auto predictor = core::CongestionPredictor::load(args.positional[0]);
    auto app = makeDesign(args.positional[1], args.directives);
    const auto design =
        hls::synthesize(std::move(app.module), app.directives, {});
    const auto hotspots = predictor.findHotspots(design, {}, 10);
    std::printf("predicted hotspots (no place-and-route was run):\n");
    for (const auto& h : hotspots)
      std::printf("  %-28s line %-5d %4zu ops  mean %.1f%%  max %.1f%%\n",
                  h.functionName.c_str(), h.sourceLine, h.numOps,
                  h.meanPredicted, h.maxPredicted);
    if (cmd == "advise") {
      std::printf("\nresolution hints:\n");
      for (const auto& hint : core::adviseResolution(design, hotspots, {}))
        std::printf("  [%s] %s\n",
                    std::string(core::resolutionKindName(hint.kind)).c_str(),
                    hint.message.c_str());
    }
    code = 0;
  } else if (cmd == "train-map") {
    if (args.positional.size() < 2) return usage();
    const std::string modelPath = args.positional[0];
    ml::MapNetConfig mapCfg;
    mapCfg.topology = ml::topologyFromName(args.topology);
    mapCfg.epochs = args.epochs;
    mapCfg.seed = args.seed;

    std::vector<apps::AppDesign> designs;
    for (std::size_t i = 1; i < args.positional.size(); ++i) {
      reportDesigns.push_back(args.positional[i]);
      designs.push_back(makeDesign(args.positional[i], args.directives));
    }
    core::FlowConfig cfg;
    cfg.seed = args.seed;
    std::fprintf(stderr, "[hcp] running %zu flow%s (%zu thread%s)...\n",
                 designs.size(), designs.size() == 1 ? "" : "s",
                 support::threadLimit(),
                 support::threadLimit() == 1 ? "" : "s");
    const auto flows = core::runFlows(designs, device, cfg);
    const auto samples = core::buildMapSamples(
        flows, device, core::gridConfigFor(cfg.par.placer));
    if (samples.empty())
      usageError("training dataset is empty: " + std::to_string(flows.size()) +
                 " flow(s) produced no congestion maps — the map model "
                 "would have nothing to fit");
    std::fprintf(stderr, "[hcp] training %s map model on %zu map%s...\n",
                 args.topology.c_str(), samples.size(),
                 samples.size() == 1 ? "" : "s");
    ml::MapNet model(mapCfg);
    model.fit(samples);
    ml::saveMapModelToFile(model, modelPath);
    std::printf("saved %s map model to %s (%zu maps, final loss %.6f)\n",
                args.topology.c_str(), modelPath.c_str(), samples.size(),
                model.finalLoss());
    code = 0;
  } else if (cmd == "predict-map") {
    if (args.positional.size() != 2) return usage();
    reportDesigns = {args.positional[1]};
    const ml::MapNet model = ml::loadMapModelFromFile(args.positional[0]);
    core::FlowConfig cfg;
    cfg.seed = args.seed;
    const ml::GridSample grid = core::placeAndExtract(
        makeDesign(args.positional[1], args.directives), device, cfg);
    const ml::MapPrediction map = model.predict(grid);
    std::printf("predicted congestion map for %s (no routing was run):\n",
                args.positional[1].c_str());
    std::printf("grid            : %ux%u\n", map.width, map.height);
    std::printf("max congestion  : V %.1f%%  H %.1f%%\n", map.maxVUtil(),
                map.maxHUtil());
    std::printf("tiles over 100%% : %zu\n", map.tilesOver(100.0));
    std::printf("\nvertical:\n%s", map.toAscii(true).c_str());
    std::printf("\nhorizontal:\n%s", map.toAscii(false).c_str());
    if (!args.mapOut.empty()) {
      ml::saveMapPredictionToFile(map, args.mapOut);
      std::fprintf(stderr, "[hcp] map artifact written to %s\n",
                   args.mapOut.c_str());
    }
    code = 0;
  } else if (cmd == "dump-ir") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    auto app = makeDesign(args.positional[0], args.directives);
    const auto design =
        hls::synthesize(std::move(app.module), app.directives, {});
    std::printf("%s", ir::print(*design.module).c_str());
    code = 0;
  } else if (cmd == "dump-verilog") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    auto app = makeDesign(args.positional[0], args.directives);
    const auto design =
        hls::synthesize(std::move(app.module), app.directives, {});
    const auto rtl = rtl::generateRtl(design);
    std::printf("%s", rtl::toVerilog(rtl.netlist).c_str());
    code = 0;
  }

  if (code == 0 && !args.report.empty()) {
    support::telemetry::RunReport meta;
    meta.tool = "hcp_cli";
    meta.command = cmd;
    meta.designs = reportDesigns;
    meta.seed = args.seed;
    meta.threads = support::threadLimit();
    meta.totalWallMs =
        static_cast<double>(support::telemetry::detail::nowNs() - start) / 1e6;
    support::telemetry::writeReportToFile(args.report, meta);
    std::fprintf(stderr, "[hcp] run report written to %s\n",
                 args.report.c_str());
  }
  if (code == 0 && !args.trace.empty()) {
    support::tracing::TraceMeta meta;
    meta.tool = "hcp_cli";
    meta.command = cmd;
    support::tracing::writeChromeTraceToFile(args.trace, meta);
    std::fprintf(stderr, "[hcp] trace timeline written to %s\n",
                 args.trace.c_str());
  }
  if (code == 0) checkStdout();
  return code == -1 ? usage() : code;
}

}  // namespace

int main(int argc, char** argv) {
  support::ignoreSigpipe();
  // Touch the thread limit before doing anything: a malformed HCP_THREADS
  // must exit 2 up front, not whenever the first parallel region runs.
  support::threadLimit();
  if (argc < 2) return usage();
  try {
    return run(argc, argv);
  } catch (const hcp::IoError& e) {
    // A user-requested artifact (model, --report, --trace, CSV, --bench-out)
    // could not be written. The flow itself may have succeeded; the distinct
    // exit code lets scripts tell "your file is missing" from "the flow
    // broke". No partial file exists — CheckedFileWriter is atomic.
    std::fprintf(stderr, "artifact write error: %s\n", e.what());
    return 5;
  } catch (const hcp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything outside the library's own error type (bad_alloc, stream
    // failures, ...) is an internal error: report it instead of aborting,
    // with a distinct exit code so scripts can tell the cases apart.
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
