// Fig 1 — congestion maps of Face Detection with vs without directives
// (paper §II). ASCII heat maps to stdout plus per-tile CSVs.
#include <fstream>

#include "bench_common.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;

  for (const bool withDirectives : {true, false}) {
    apps::FaceDetectionConfig app;
    app.withDirectives = withDirectives;
    std::fprintf(stderr, "[fig1] face_detection %s directives...\n",
                 withDirectives ? "with" : "without");
    const auto flow = core::runFlow(apps::faceDetection(app), device, cfg);
    const auto smooth = flow.impl.routing.map.smoothed(1);
    const char* tag = withDirectives ? "with" : "without";
    std::printf("=== Fig 1 (%s directives) — vertical ===\n%s\n", tag,
                smooth.toAscii(true).c_str());
    std::printf("=== Fig 1 (%s directives) — horizontal ===\n%s\n", tag,
                smooth.toAscii(false).c_str());
    std::printf("maxV=%.1f%% maxH=%.1f%% tiles>100%%=%zu\n\n",
                flow.maxVCongestion, flow.maxHCongestion,
                flow.congestedTiles);
    std::ofstream csv(std::string("fig1_map_") + tag + ".csv");
    csv << flow.impl.routing.map.toCsv();
  }
  std::printf("(per-tile CSVs: fig1_map_with.csv / fig1_map_without.csv)\n");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("fig1_congestion_maps", argc, argv, runBench);
}
