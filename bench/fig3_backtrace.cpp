// Fig 3 — the back-tracing flow (paper §III-A1): walks congestion-per-CLB
// back to cells, nets, module instances, IR operations and source lines,
// printing sample chains and consistency counts.
#include <algorithm>

#include "bench_common.hpp"
#include "trace/backtrace.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;
  std::fprintf(stderr, "[fig3] face_detection...\n");
  const auto flow = core::runFlow(apps::faceDetection({}), device, cfg);

  // Chains for the cells on the three most congested tiles.
  struct Hot {
    double util;
    rtl::CellId cell;
  };
  std::vector<Hot> hot;
  for (rtl::CellId c = 0; c < flow.rtl.netlist.numCells(); ++c) {
    if (flow.rtl.netlist.cell(c).ops.empty()) continue;
    const auto tile = flow.impl.tileOfCell(c);
    hot.push_back(
        {std::max(flow.impl.routing.map.vUtil(tile.x, tile.y),
                  flow.impl.routing.map.hUtil(tile.x, tile.y)),
         c});
  }
  std::sort(hot.begin(), hot.end(),
            [](const Hot& a, const Hot& b) { return a.util > b.util; });

  std::printf("=== Fig 3: back-tracing chains (hottest cells) ===\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hot.size()); ++i)
    std::printf("%s\n",
                trace::describeCell(flow.rtl, flow.impl,
                                    *flow.design.module, hot[i].cell)
                    .c_str());

  // Consistency: every sample's chain resolves.
  Table stats("Back-trace consistency");
  stats.setHeader({"Metric", "Value"});
  stats.addRow({"cells traced", std::to_string(flow.traced.cellsTraced)});
  stats.addRow({"(instance, op) samples",
                std::to_string(flow.traced.samples.size())});
  std::size_t withLine = 0;
  for (const auto& s : flow.traced.samples)
    if (s.sourceLine > 0) ++withLine;
  stats.addRow({"samples with source line", std::to_string(withLine)});
  stats.addRow({"netlist cells",
                std::to_string(flow.rtl.netlist.numCells())});
  bench::emit(stats, "fig3_backtrace.csv");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("fig3_backtrace", argc, argv, runBench);
}
