// Table III — property summary of the benchmark suite (paper §IV): WNS,
// frequency and routing-congestion statistics across the three top-level
// combinations, plus the Max/Min/Avg summary row structure of the paper.
#include "bench_common.hpp"
#include "support/stats.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  const auto flows = bench::runBenchmarkSuite(device);

  Table perDesign("Per-design implementation results");
  perDesign.setHeader({"Design", "WNS(ns)", "Freq.(MHz)", "Vert Cong(%)",
                       "Horiz Cong(%)", "Avg (V,H)(%)", "Samples"});
  std::vector<double> wns, freq, v, h, avg;
  for (const auto& flow : flows) {
    const double a = 0.5 * (flow.maxVCongestion + flow.maxHCongestion);
    perDesign.addRow({flow.name, fmt(flow.wnsNs, 3),
                      fmt(flow.maxFrequencyMhz, 1),
                      fmt(flow.maxVCongestion, 2),
                      fmt(flow.maxHCongestion, 2), fmt(a, 2),
                      std::to_string(flow.traced.samples.size())});
    wns.push_back(flow.wnsNs);
    freq.push_back(flow.maxFrequencyMhz);
    v.push_back(flow.maxVCongestion);
    h.push_back(flow.maxHCongestion);
    avg.push_back(a);
  }
  bench::emit(perDesign, "table3_per_design.csv");

  Table summary(
      "Table III: property summary (paper: WNS -3.25/-13.64/-8.39, "
      "Freq 75.5/42.3/54.4, V 133.33/5.06/60.58, H 178.96/8.90/72.47)");
  summary.setHeader({"Metrics", "WNS(ns)", "Freq.(MHz)", "Vertical Cong(%)",
                     "Horizontal Cong(%)", "Avg. (V,H)(%)"});
  auto row = [&](const char* tag, auto pick) {
    summary.addRow({tag, fmt(pick(wns), 3), fmt(pick(freq), 1),
                    fmt(pick(v), 2), fmt(pick(h), 2), fmt(pick(avg), 2)});
  };
  row("Max", [](const std::vector<double>& x) { return maxOf(x); });
  row("Min", [](const std::vector<double>& x) { return minOf(x); });
  row("Avg.", [](const std::vector<double>& x) { return mean(x); });
  bench::emit(summary, "table3_benchmarks.csv");

  // Per-tile distribution pooled over the suite (the paper's congestion
  // metrics are per-CLB; this mirrors its Min/Avg rows at tile granularity).
  std::vector<double> tileV, tileH;
  for (const auto& flow : flows) {
    const auto& map = flow.impl.routing.map;
    for (std::uint32_t y = 0; y < map.height(); ++y)
      for (std::uint32_t x = 0; x < map.width(); ++x) {
        tileV.push_back(map.vUtil(x, y));
        tileH.push_back(map.hUtil(x, y));
      }
  }
  Table tiles("Pooled per-tile congestion distribution");
  tiles.setHeader({"Metric", "Max", "P95", "Mean", "Median"});
  tiles.addRow({"Vertical(%)", fmt(maxOf(tileV), 2),
                fmt(percentile(tileV, 95), 2), fmt(mean(tileV), 2),
                fmt(median(tileV), 2)});
  tiles.addRow({"Horizontal(%)", fmt(maxOf(tileH), 2),
                fmt(percentile(tileH, 95), 2), fmt(mean(tileH), 2),
                fmt(median(tileH), 2)});
  bench::emit(tiles, "table3_tile_distribution.csv");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table3_benchmarks", argc, argv, runBench);
}
