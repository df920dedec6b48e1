// Table I — performance comparison of Face Detection with and without HLS
// directives (paper §II). Reproduces the motivating trade-off: directives
// slash latency but congest the fabric and depress the maximum frequency.
#include "bench_common.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;

  Table table("Table I: Face Detection with vs without directives "
              "(paper: -13.643ns/42.3MHz/1.08e6cyc/178.96% vs "
              "-0.066ns/99.3MHz/1.73e7cyc/58.51%)");
  table.setHeader({"Implementation", "WNS(ns)", "Max Freq.(MHz)",
                   "Latency(cycles)", "Max Congestion(%)",
                   "#Congested tiles(>100%)"});

  for (const bool withDirectives : {true, false}) {
    apps::FaceDetectionConfig app;
    app.withDirectives = withDirectives;
    std::fprintf(stderr, "[flow] face_detection %s directives...\n",
                 withDirectives ? "with" : "without");
    const auto flow =
        core::runFlow(apps::faceDetection(app), device, cfg);
    const double maxCong =
        std::max(flow.maxVCongestion, flow.maxHCongestion);
    table.addRow({withDirectives ? "With Directives" : "Without Directives",
                  fmt(flow.wnsNs, 3), fmt(flow.maxFrequencyMhz, 1),
                  fmtSci(static_cast<double>(flow.latencyCycles)),
                  fmt(maxCong, 2), std::to_string(flow.congestedTiles)});
  }
  bench::emit(table, "table1_motivation.csv");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table1_motivation", argc, argv, runBench);
}
