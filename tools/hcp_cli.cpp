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
//   hcp_cli predict-map <design> [--map-out FILE]
//       synthesize + pack + place (no routing), print the RUDY estimate of
//       the V/H congestion maps; --map-out writes the hcp-map artifact
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
//   hcp_cli profile REPORT.json
//       print each span's calls, total and self time (total minus its
//       children's) and share of the run, largest self time first; a
//       "(outside spans)" row holds the wall time no top-level span covers
//
// Options (hcp_cli's own; --threads, --report, --trace, --cache and
// --failpoints, their HCP_* fallbacks and the exit codes are the process
// contract every hcp binary shares — README "Process contract", DESIGN.md
// §14):
//   --seed N          master seed for the stochastic stages (default 42)
//   --no-directives   synthesize without the paper's pragma set
//   --model KIND      predictor kind for `train`: gbrt (default), ann, linear
//   --shard-dir DIR   dataset shard directory for `shard` and
//                     `train --from-shards`; HCP_SHARDS is the fallback
//   --map-out FILE    where `predict-map` writes the map artifact
//
// `list`, `compare-reports` and `profile` inspect rather than run: they
// take no --threads, --report, --trace or --cache. On top of the shared
// exit codes, compare-reports exits 1 on a regression, and both report
// commands exit 4 on malformed input or a schema mismatch.
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
#include "core/map_predictor.hpp"
#include "core/predictor.hpp"
#include "core/resolver.hpp"
#include "core/shard_builder.hpp"
#include "fpga/serialize.hpp"
#include "ir/printer.hpp"
#include "rtl/verilog.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/process.hpp"
#include "support/report_diff.hpp"

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
               "usage: hcp_cli <flow|train|shard|predict|advise|predict-map|"
               "dump-ir|dump-verilog|list|compare-reports|profile> ..."
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

struct Args {
  std::vector<std::string> positional;
  std::uint64_t seed = 42;
  bool directives = true;
  std::string model = "gbrt";
  std::string mapOut;       ///< empty = predict-map prints only
  std::string shardDir;     ///< dataset shard directory (HCP_SHARDS fallback)
  bool fromShards = false;  ///< `train --from-shards`
};

/// Parses `argv[1..]` (argv[0] is the command), the arguments the process
/// shell left after taking out its own flags.
Args parse(const std::vector<std::string>& argv) {
  Args args;
  auto value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= argv.size()) usageError(argv[i] + " expects a value");
    return argv[++i];
  };
  auto nonEmpty = [&](std::size_t& i) -> const std::string& {
    const std::string& flag = argv[i];
    const std::string& v = value(i);
    if (v.empty()) usageError(flag + " expects a non-empty value");
    return v;
  };
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "--seed") {
      args.seed = support::env::parseCount(a, value(i), 0, usageError);
    } else if (a == "--shard-dir") {
      args.shardDir = nonEmpty(i);
    } else if (a.rfind("--shard-dir=", 0) == 0) {
      args.shardDir = a.substr(std::strlen("--shard-dir="));
      if (args.shardDir.empty())
        usageError("--shard-dir expects a non-empty value");
    } else if (a == "--from-shards") {
      args.fromShards = true;
    } else if (a == "--no-directives") {
      args.directives = false;
    } else if (a == "--model") {
      args.model = value(i);
    } else if (a == "--map-out") {
      args.mapOut = nonEmpty(i);
    } else if (a.rfind("--", 0) == 0) {
      usageError("unknown option '" + a + "' (see hcp_cli usage)");
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.shardDir.empty()) {
    if (const char* env = std::getenv("HCP_SHARDS")) args.shardDir = env;
  }
  return args;
}

/// `compare-reports BASE.json NEW.json [flags]` — flag parsing is local
/// because the common Args flags (seed/model/...) make no sense here.
int runCompareReports(const std::vector<std::string>& argv) {
  std::string base, fresh;
  support::report_diff::Options opts;
  auto value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= argv.size()) usageError(argv[i] + " expects a value");
    return argv[++i];
  };
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "--max-wall-regress") {
      // Strict parse: the old raw strtod accepted "nan" (which made the
      // regression gate vacuously pass — NaN compares false), "inf", hex
      // floats and trailing garbage like "400%".
      const std::string& text = value(i);
      const std::optional<double> pct = support::env::parseF64(text);
      if (!pct || *pct < 0.0)
        usageError(
            "--max-wall-regress expects a non-negative percentage, got '" +
            text + "'");
      opts.maxWallRegressPct = *pct;
    } else if (a == "--require-counters-equal") {
      opts.requireCountersEqual = true;
    } else if (a == "--bench-out") {
      opts.benchOutPath = value(i);
      if (opts.benchOutPath.empty())
        usageError("--bench-out expects a non-empty value");
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

/// The `list`, `compare-reports` and `profile` queries write no report,
/// trace or cache (support::process::Mode::kQuery).
bool isQuery(const std::string& cmd) {
  return cmd == "list" || cmd == "compare-reports" || cmd == "profile";
}

int run(support::process::Session& session, const std::string& cmd) {
  const std::vector<std::string>& argv = session.args();
  // The command is argv[1]: a leading flag is no command at all.
  if (argv.empty() || argv[0] != cmd) return usage();
  if (cmd == "list") {
    for (const auto& d : apps::designNames()) std::printf("%s\n", d.c_str());
    return checkStdout();
  }
  if (cmd == "compare-reports") return runCompareReports(argv);
  if (cmd == "profile") {
    if (argv.size() != 2 || argv[1].rfind("--", 0) == 0)
      usageError("profile takes exactly one report file");
    const int code = support::report_diff::printProfile(argv[1], std::cout);
    checkStdout();
    return code;
  }

  const auto device = fpga::Device::xc7z020like();
  const Args args = parse(argv);
  if (args.fromShards && cmd != "train")
    usageError("--from-shards only applies to train");
  session.report().command = cmd;
  session.report().seed = args.seed;
  std::vector<std::string>& reportDesigns = session.report().designs;

  if (cmd == "flow") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    printSummary(runNamedFlow(args.positional[0], args, device));
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
  } else if (cmd == "predict-map") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    core::FlowConfig cfg;
    cfg.seed = args.seed;
    const fpga::CongestionMap map = core::placeAndExtract(
        makeDesign(args.positional[0], args.directives), device, cfg);
    std::printf("predicted congestion map for %s (no routing was run):\n",
                args.positional[0].c_str());
    std::printf("grid            : %ux%u\n", map.width(), map.height());
    std::printf("max congestion  : V %.1f%%  H %.1f%%\n", map.maxVUtil(),
                map.maxHUtil());
    std::printf("tiles over 100%% : %zu\n", map.tilesOver(100.0));
    std::printf("\nvertical:\n%s", map.toAscii(true).c_str());
    std::printf("\nhorizontal:\n%s", map.toAscii(false).c_str());
    if (!args.mapOut.empty()) {
      fpga::saveMapArtifact(map, args.mapOut);
      std::fprintf(stderr, "[hcp] map artifact written to %s\n",
                   args.mapOut.c_str());
    }
  } else if (cmd == "dump-ir") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    auto app = makeDesign(args.positional[0], args.directives);
    const auto design =
        hls::synthesize(std::move(app.module), app.directives, {});
    std::printf("%s", ir::print(*design.module).c_str());
  } else if (cmd == "dump-verilog") {
    if (args.positional.size() != 1) return usage();
    reportDesigns = {args.positional[0]};
    auto app = makeDesign(args.positional[0], args.directives);
    const auto design =
        hls::synthesize(std::move(app.module), app.directives, {});
    const auto rtl = rtl::generateRtl(design);
    std::printf("%s", rtl::toVerilog(rtl.netlist).c_str());
  } else {
    return usage();
  }
  // The report and trace are written before the stdout check, so a dead
  // stdout (exit 5) still leaves them behind.
  session.finish();
  return checkStdout();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  return support::process::runMain(
      "hcp_cli", argc, argv,
      [&](support::process::Session& session) { return run(session, cmd); },
      isQuery(cmd) ? support::process::Mode::kQuery
                   : support::process::Mode::kRun);
}
