// Fig 5 — spatial distribution of the vertical congestion metric for Face
// Detection (paper §III-C1): congestion concentrates in the device centre
// and falls off toward the margins, which is why unroll replicas placed at
// the margin become label outliers (the motivation for the filter).
#include "bench_common.hpp"
#include "support/stats.hpp"
#include "trace/backtrace.hpp"

using namespace hcp;

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench() {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;
  std::fprintf(stderr, "[fig5] face_detection...\n");
  const auto flow = core::runFlow(apps::faceDetection({}), device, cfg);

  std::printf("=== Fig 5: vertical congestion map (smoothed) ===\n%s\n",
              flow.impl.routing.map.smoothed(2).toAscii(true).c_str());

  // Radial profile: mean vertical utilization by distance from the centre.
  const auto& map = flow.impl.routing.map;
  constexpr int kRings = 8;
  std::array<double, kRings> sum{};
  std::array<std::size_t, kRings> count{};
  for (std::uint32_t y = 0; y < map.height(); ++y) {
    for (std::uint32_t x = 0; x < map.width(); ++x) {
      const int ring = std::min(
          kRings - 1,
          static_cast<int>(device.centreRadius(x, y) * kRings));
      sum[ring] += map.vUtil(x, y);
      ++count[ring];
    }
  }
  Table radial("Radial profile of vertical congestion (centre -> margin)");
  radial.setHeader({"Ring (0=centre)", "Tiles", "Mean V util(%)"});
  for (int r = 0; r < kRings; ++r)
    radial.addRow({std::to_string(r), std::to_string(count[r]),
                   fmt(count[r] ? sum[r] / count[r] : 0.0, 2)});
  bench::emit(radial, "fig5_radial.csv");

  // Replica-label divergence: the basis of the marginal filter.
  auto samples = flow.traced.samples;
  const auto stats = trace::filterMarginal(samples);
  std::vector<double> central, marginal;
  for (const auto& s : samples)
    (s.centreRadius < 0.55 ? central : marginal).push_back(s.vCongestion);
  Table divergence("Sample labels by placement region");
  divergence.setHeader({"Region", "Samples", "Mean V label(%)",
                        "Median V label(%)"});
  divergence.addRow({"centre (r<0.55)", std::to_string(central.size()),
                     fmt(mean(central), 2), fmt(median(central), 2)});
  divergence.addRow({"margin (r>=0.55)", std::to_string(marginal.size()),
                     fmt(mean(marginal), 2), fmt(median(marginal), 2)});
  bench::emit(divergence, "fig5_divergence.csv");
  std::printf("marginal ops filtered: %zu of %zu (%.1f%%; paper: ~3.4%%)\n",
              stats.marginal, stats.total, 100.0 * stats.fraction());
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("fig5_distribution", argc, argv, runBench);
}
