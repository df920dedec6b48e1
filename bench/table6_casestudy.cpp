// Table VI + Fig 6 — the Face Detection case study (paper §IV-C):
//   Baseline      : optimized directives, everything inlined -> congested
//   Not Inline    : classifiers kept as modules -> congestion drops
//   Replication   : input window replicated per classifier group -> drops more
// The predictor locates the congested source region before each step, and the
// resolution advisor proposes exactly the rewrite the paper applies.
#include "bench_common.hpp"
#include "core/predictor.hpp"
#include "core/resolver.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;

  struct Step {
    const char* name;
    apps::FaceDetectionConfig config;
  };
  std::vector<Step> steps;
  steps.push_back({"Baseline", {}});
  {
    apps::FaceDetectionConfig notInline;
    notInline.inlineClassifiers = false;
    steps.push_back({"Not Inline", notInline});
    apps::FaceDetectionConfig replication = notInline;
    replication.replicateWindowArray = true;
    steps.push_back({"Replication", replication});
  }

  Table table(
      "Table VI: case study (paper: Fmax 42.3->74.1->92.9 MHz, congested "
      "CLBs 1272->193->17, latency ~flat)");
  table.setHeader({"Implementation", "WNS(ns)", "Max Freq.(MHz)",
                   "dLatency(cycles)", "Max Cong Vert,Hori(%)",
                   "#Congested tiles(>100%)"});

  std::uint64_t baselineLatency = 0;
  std::vector<core::FlowResult> flows;
  for (const auto& step : steps) {
    std::fprintf(stderr, "[table6] %s...\n", step.name);
    auto flow = core::runFlow(apps::faceDetection(step.config), device, cfg);
    if (flows.empty()) baselineLatency = flow.latencyCycles;
    const std::int64_t dLatency =
        static_cast<std::int64_t>(flow.latencyCycles) -
        static_cast<std::int64_t>(baselineLatency);
    table.addRow(
        {step.name, fmt(flow.wnsNs, 3), fmt(flow.maxFrequencyMhz, 1),
         (flows.empty() ? fmtSci(static_cast<double>(flow.latencyCycles))
                        : (dLatency >= 0 ? "+" : "") +
                              std::to_string(dLatency)),
         fmt(flow.maxVCongestion, 2) + ", " + fmt(flow.maxHCongestion, 2),
         std::to_string(flow.congestedTiles)});
    flows.push_back(std::move(flow));
  }
  bench::emit(table, "table6_casestudy.csv");

  // Fig 6: the three congestion maps (horizontal, as the paper's hottest).
  for (std::size_t s = 0; s < steps.size(); ++s) {
    std::printf("--- Fig 6 (%s): horizontal congestion map ---\n",
                steps[s].name);
    std::printf("%s\n",
                flows[s].impl.routing.map.smoothed(1).toAscii(false).c_str());
  }

  // Prediction phase: train on the baseline, locate the hotspot, and show
  // that the advisor proposes the paper's fixes.
  std::fprintf(stderr, "[table6] training predictor on baseline...\n");
  const auto data = core::buildDataset(flows[0], {});
  core::CongestionPredictor predictor{core::PredictorOptions{}};
  predictor.train(data);
  const auto hotspots = predictor.findHotspots(flows[0].design, {}, 5);
  Table spots("Predicted congested source regions (baseline)");
  spots.setHeader({"Function", "Line", "#Ops", "Mean pred(%)", "Max pred(%)"});
  for (const auto& h : hotspots)
    spots.addRow({h.functionName, std::to_string(h.sourceLine),
                  std::to_string(h.numOps), fmt(h.meanPredicted, 1),
                  fmt(h.maxPredicted, 1)});
  bench::emit(spots, "table6_hotspots.csv");

  const auto hints = core::adviseResolution(flows[0].design, hotspots, {});
  std::printf("Resolution advice:\n");
  for (const auto& hint : hints)
    std::printf("  [%s] %s\n",
                std::string(core::resolutionKindName(hint.kind)).c_str(),
                hint.message.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table6_casestudy", argc, argv, runBench);
}
