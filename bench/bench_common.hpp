// Shared helpers for the table/figure reproduction binaries: the benchmark
// suite (the paper's three top-level combinations), dataset assembly and a
// couple of formatting shorthands. All benches run with fixed seeds so their
// output is reproducible bit-for-bit — at any thread count: the parallel
// layer (support/parallel.hpp) merges results deterministically.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "apps/vision_suite.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/tracing.hpp"

namespace hcp::bench {

inline constexpr std::uint64_t kSeed = 42;

/// Applies a `--threads N` (or `--threads=N`) command-line flag to the
/// global thread limit. Call first thing in main(); unrelated arguments are
/// ignored. Returns the applied limit (or the default when no flag given).
/// The value must be a whole positive integer, and a trailing `--threads`
/// with no value is a usage error (exit 2) like every other flag's.
inline std::size_t parseThreads(int argc, char** argv) {
  const std::string value =
      support::telemetry::detail::flagValueOrDie(argc, argv, "threads");
  if (!value.empty()) {
    const auto n = support::env::parseU64(value);
    if (!n || *n == 0) {
      std::fprintf(stderr,
                   "--threads expects a positive integer, got '%s'\n",
                   value.c_str());
      std::exit(2);
    }
    support::setThreadLimit(static_cast<std::size_t>(*n));
  }
  return support::threadLimit();
}

/// Per-binary session bookkeeping: applies `--threads N`, arms telemetry
/// when `--report FILE` (or HCP_REPORT) is present, the trace sink when
/// `--trace FILE` (or HCP_TRACE) is, the flow cache when `--cache DIR`
/// (or HCP_CACHE) is, and fault injection when `--failpoints SPEC` (or
/// HCP_FAILPOINTS) is. finish() — called by runBenchMain after the body
/// returns normally — writes the JSON run report and Chrome trace timeline.
/// The writes live in finish() rather than the destructor on purpose: the
/// writers now raise hcp::IoError on failure, and an exception escaping a
/// destructor during unwinding would std::terminate instead of reaching
/// the exit-code mapping. Instantiated by runBenchMain — bench binaries
/// never touch the flags themselves.
class BenchSession {
 public:
  BenchSession(const char* tool, int argc, char** argv)
      : tool_(tool),
        threads_(parseThreads(argc, argv)),
        failpoints_(support::failpoint::initFromArgs(argc, argv)),
        reportPath_(support::telemetry::initReportFromArgs(argc, argv)),
        tracePath_(support::tracing::initTraceFromArgs(argc, argv)),
        cacheDir_(support::flowcache::initCacheFromArgs(argc, argv)) {}

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  /// Writes the requested artifacts (report, trace). Throws hcp::IoError
  /// when one cannot be written — mapped to exit 5 by runBenchMain.
  void finish() {
    if (!reportPath_.empty()) {
      support::telemetry::RunReport meta;
      meta.tool = tool_;
      meta.command = "bench";
      meta.seed = kSeed;
      meta.threads = support::threadLimit();
      support::telemetry::writeReportToFile(reportPath_, meta);
      std::fprintf(stderr, "[hcp] run report written to %s\n",
                   reportPath_.c_str());
    }
    if (!tracePath_.empty()) {
      support::tracing::TraceMeta meta;
      meta.tool = tool_;
      meta.command = "bench";
      support::tracing::writeChromeTraceToFile(tracePath_, meta);
      std::fprintf(stderr, "[hcp] trace timeline written to %s\n",
                   tracePath_.c_str());
    }
  }

  std::size_t threads() const { return threads_; }
  const std::string& cacheDir() const { return cacheDir_; }

 private:
  std::string tool_;
  std::size_t threads_;
  std::string failpoints_;
  std::string reportPath_;
  std::string tracePath_;
  std::string cacheDir_;
};

/// The shared main() shell of every bench binary: session setup (threads,
/// report, trace, cache, failpoints — new flags land here, once), the body,
/// artifact writes, and the same exception-to-exit-code mapping hcp_cli
/// uses (1 = hcp::Error, 3 = unexpected std::exception, 5 = a requested
/// artifact could not be written). `body` receives the live session.
template <typename Body>
int runBenchMain(const char* tool, int argc, char** argv, Body&& body) {
  // `bench | head` must fail through the exit-code mapping below, not die on
  // SIGPIPE before any error path runs.
  support::ignoreSigpipe();
  try {
    BenchSession session(tool, argc, argv);
    body(session);
    session.finish();
    return 0;
  } catch (const hcp::IoError& e) {
    std::fprintf(stderr, "%s: artifact write error: %s\n", tool, e.what());
    return 5;
  } catch (const hcp::Error& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: internal error: %s\n", tool, e.what());
    return 3;
  }
}

/// The paper's three evaluated combinations (§IV): Face Detection alone,
/// Digit Recognition + Spam Filtering, and BNN + 3D Rendering + Optical
/// Flow under one top function. The three independent C-to-FPGA flows run
/// concurrently on the thread pool; results come back in suite order and
/// are bit-identical to serial execution.
inline std::vector<core::FlowResult> runBenchmarkSuite(
    const fpga::Device& device, std::uint64_t seed = kSeed) {
  core::FlowConfig cfg;
  cfg.seed = seed;
  std::vector<apps::AppDesign> designs;
  designs.push_back(apps::faceDetection({}));
  designs.push_back(apps::digitSpamCombined());
  designs.push_back(apps::visionCombined());
  std::fprintf(stderr,
               "[flow] face_detection + digit_spam + vision_combined "
               "(%zu thread%s)...\n",
               support::threadLimit(),
               support::threadLimit() == 1 ? "" : "s");
  return core::runFlows(designs, device, cfg);
}

/// Prints a table and writes its CSV next to the binary.
inline void emit(const Table& table, const std::string& csvName) {
  std::printf("%s\n", table.toAscii().c_str());
  table.writeCsv(csvName);
  std::printf("(csv written to %s)\n\n", csvName.c_str());
}

}  // namespace hcp::bench
