// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload implement|serve|train --seed N --seconds S
//             --trace 0|1 [--threads T]
//
// Runs one workload in this process under a fixed thread limit, checks every
// output, prints a human-readable report and, as the last stdout line, one
// JSON object {"correct","attempted","failed","metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 they
// are the per-layer ones, from traced passes interleaved with untraced ones
// (the span timeline is written to .bench_out/trace-<workload>-<seed>.json).
// Scratch files (flow cache, shards, models) live under .bench_out/ too and
// are removed when the run ends.
// Exit status: 0 when every check passed, 1 when a check or an operation
// failed, 2 on a usage error.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "support/env.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using NameUnit = std::pair<std::string, std::string>;

const std::vector<NameUnit> kEndToEnd = {
    {"setup_s", "s"},    {"pass_s", "s"},          {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"}, {"peak_rss_mb", "MB"},
};

const std::vector<NameUnit> kPerLayer = {
    {"trace.accounted_share", "ratio"},
    {"trace.waiting_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    // implement
    {"fpga.place_ms", "ms"},
    {"fpga.placer_moves", "count"},
    {"fpga.place_ns_per_move", "ns"},
    {"fpga.place_accept_ratio", "ratio"},
    {"fpga.route_ms", "ms"},
    {"fpga.route_iterations", "count"},
    {"fpga.route_ripups", "count"},
    {"fpga.pack_ms", "ms"},
    {"fpga.sta_ms", "ms"},
    {"fpga.place_route_share", "ratio"},
    {"support.parallel.idle_share", "ratio"},
    {"hls.synthesize_ms", "ms"},
    {"hls.synthesize_share", "ratio"},
    {"rtl.generate_ms", "ms"},
    {"rtl.generate_share", "ratio"},
    {"trace.backtrace_ms", "ms"},
    {"trace.backtrace_share", "ratio"},
    {"core.flow_ms", "ms"},
    {"congested_tiles", "count"},
    {"wirelength", "hpwl"},
    // serve
    {"features.extract_us_per_op", "us"},
    {"ml.predict_us_per_row", "us"},
    {"core.find_hotspots_ms", "ms"},
    {"support.flowcache.load_ms", "ms"},
    {"core.read_flow_ms", "ms"},
    {"support.flowcache.hit_ratio", "ratio"},
    {"serve.parse_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"ml.model_load_ms", "ms"},
    {"predict_p50_ms", "ms"},
    {"predict_p95_ms", "ms"},
    {"replay_p50_ms", "ms"},
    {"core.predict_vs_implement_x", "x"},
    // train
    {"ml.shards.read_ms", "ms"},
    {"ml.shards.reads", "count"},
    {"ml.fit_linear_ms", "ms"},
    {"ml.fit_gbrt_ms", "ms"},
    {"ml.gbrt.rounds", "count"},
    {"ml.fit_gbrt_us_per_round", "us"},
    {"ml.fit_ann_ms", "ms"},
    {"ml.ann.epochs", "count"},
    {"ml.predict_all_ms", "ms"},
    {"ml.save_ms", "ms"},
    {"ml.shards.write_ms", "ms"},
    {"features.dataset_build_ms", "ms"},
    {"train_linear_s", "s"},
    {"train_gbrt_s", "s"},
    {"train_ann_s", "s"},
    {"heldout_mae_v", "%"},
    {"heldout_mae_h", "%"},
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload implement|serve|train "
               "--seed N --seconds S --trace 0|1 [--threads T]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parseU64(const std::string& flag, const std::string& v) {
  const std::optional<std::uint64_t> n = hcp::support::env::parseU64(v);
  if (!n) usage(flag + " expects a non-negative integer, got '" + v + "'");
  return *n;
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value after " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (a == "--seed") {
      o.seed = parseU64(a, v);
      haveSeed = true;
    } else if (a == "--seconds") {
      const std::uint64_t s = parseU64(a, v);
      if (s == 0 || s > 600) usage("--seconds must be in 1..600");
      o.seconds = static_cast<double>(s);
      haveSeconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
      haveTrace = true;
    } else if (a == "--threads") {
      o.threads = parseU64(a, v);
      if (o.threads == 0 || o.threads > 64) usage("--threads must be in 1..64");
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (o.workload != "implement" && o.workload != "serve" && o.workload != "train")
    usage("unknown workload '" + o.workload + "'");
  return o;
}

void printJson(const Result& r, const std::vector<NameUnit>& names) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    double value = 0.0;
    for (const Metric& m : r.metrics)
      if (m.name == name) value = m.value;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opts = parseArgs(argc, argv);
  hcp::support::setThreadLimit(opts.threads);
  std::filesystem::create_directories(kOutDir);

  Tracer tracer;
  Result r;
  try {
    if (opts.workload == "implement") r = runImplement(opts, tracer);
    else if (opts.workload == "serve") r = runServe(opts, tracer);
    else r = runTrain(opts, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 opts.workload.c_str(), e.what());
    return 1;
  }

  const auto& names = opts.trace ? kPerLayer : kEndToEnd;
  for (const Metric& m : r.metrics) {
    bool known = false;
    for (const auto& [name, unit] : names) known |= name == m.name && unit == m.unit;
    r.check(known, "metric " + m.name + " [" + m.unit + "] is declared");
  }
  if (opts.trace) {
    const std::string path = kOutDir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    tracer.writeChromeTrace(path);
    r.note("spans written to " + path);
  }
  for (const auto& line : r.report) std::printf("%s\n", line.c_str());
  std::printf("checks: %llu passed of %llu; operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.checks - r.checksFailed),
              static_cast<unsigned long long>(r.checks),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  printJson(r, names);
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
