// Shared helpers for the table/figure reproduction binaries: the benchmark
// suite (the paper's three top-level combinations), dataset assembly and a
// couple of formatting shorthands. All benches run with fixed seeds so their
// output is reproducible bit-for-bit — at any thread count: the parallel
// layer (support/parallel.hpp) merges results deterministically.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "apps/vision_suite.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "support/parallel.hpp"
#include "support/process.hpp"
#include "support/table.hpp"

namespace hcp::bench {

inline constexpr std::uint64_t kSeed = 42;

/// The main() of every bench binary: the process shell
/// (support/process.hpp: flags, report, trace, cache, failpoints, exit
/// codes) around `body`, with the benches' report metadata — command
/// "bench" and the fixed seed.
template <typename Body>
int runBenchMain(const char* tool, int argc, char** argv, Body&& body) {
  return support::process::runMain(
      tool, argc, argv, [&](support::process::Session& session) {
        session.report().command = "bench";
        session.report().seed = kSeed;
        body();
        return 0;
      });
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
