// Congestion-map model accuracy on unseen designs — BENCH_mapnet.json.
//
// Leave-one-design-out over the table-3 suite: for each topology and each
// of five model seeds, trains on two designs' placed grid features and
// routed maps, then scores the predicted V/H maps of the third design
// against its routed ground truth (per-tile MAE in utilization percent,
// top-decile hotspot IoU). The gate: the conv net's mean held-out hotspot
// IoU must beat the tile-wise linear baseline's, or the bench exits 1.
// Everything runs at fixed seeds through the deterministic pool, so the
// JSON is bit-identical at any --threads.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/map_predictor.hpp"
#include "ml/mapnet.hpp"
#include "ml/metrics.hpp"
#include "support/textio.hpp"

using namespace hcp;

namespace {

/// The model seeds each held-out fit is repeated under; the spread across
/// them is the seed-to-seed noise of the map models themselves.
constexpr std::uint64_t kModelSeeds[] = {hcp::bench::kSeed, 1, 2, 3, 4};

struct DesignScore {
  std::string design;
  double maeV = 0.0, maeH = 0.0;
  double iouV = 0.0, iouH = 0.0;
  double meanIoU() const { return 0.5 * (iouV + iouH); }
  double meanMae() const { return 0.5 * (maeV + maeH); }
};

template <typename T, typename F>
double meanOf(const std::vector<T>& items, F value) {
  double sum = 0.0;
  for (const T& item : items) sum += value(item);
  return items.empty() ? 0.0 : sum / static_cast<double>(items.size());
}

struct SeedResult {
  std::uint64_t seed = 0;
  std::vector<DesignScore> heldOut;  ///< one per held-out design
  double meanIoU() const {
    return meanOf(heldOut, [](const DesignScore& s) { return s.meanIoU(); });
  }
  double meanMae() const {
    return meanOf(heldOut, [](const DesignScore& s) { return s.meanMae(); });
  }
};

struct TopologyResult {
  std::string name;
  std::vector<SeedResult> seeds;
  double meanIoU() const {
    return meanOf(seeds, [](const SeedResult& s) { return s.meanIoU(); });
  }
  double meanMae() const {
    return meanOf(seeds, [](const SeedResult& s) { return s.meanMae(); });
  }
};

DesignScore score(const std::string& design, const ml::MapSample& truth,
                  const ml::MapPrediction& predicted) {
  DesignScore s;
  s.design = design;
  s.maeV = ml::meanAbsoluteError(truth.vTarget, predicted.vUtil);
  s.maeH = ml::meanAbsoluteError(truth.hTarget, predicted.hUtil);
  s.iouV = ml::hotspotIoU(truth.vTarget, predicted.vUtil);
  s.iouH = ml::hotspotIoU(truth.hTarget, predicted.hUtil);
  return s;
}

void runBench() {
  const auto device = fpga::Device::xc7z020like();
  const std::vector<core::FlowResult> flows =
      hcp::bench::runBenchmarkSuite(device);
  const auto samples = core::buildMapSamples(
      flows, device, core::gridConfigFor(fpga::PlacerConfig{}));

  std::vector<TopologyResult> results;
  for (const auto topology : {ml::MapNetConfig::Topology::kTileLinear,
                              ml::MapNetConfig::Topology::kConv}) {
    TopologyResult result;
    result.name = ml::topologyName(topology);
    std::fprintf(stderr, "[mapnet] %s: %zu seeds x %zu held-out designs...\n",
                 result.name.c_str(), std::size(kModelSeeds), samples.size());
    for (const std::uint64_t seed : kModelSeeds) {
      SeedResult seedResult;
      seedResult.seed = seed;
      for (std::size_t held = 0; held < samples.size(); ++held) {
        std::vector<ml::MapSample> train;
        for (std::size_t i = 0; i < samples.size(); ++i)
          if (i != held) train.push_back(samples[i]);
        ml::MapNetConfig config;
        config.topology = topology;
        config.seed = seed;
        ml::MapNet model(config);
        model.fit(train);
        seedResult.heldOut.push_back(score(
            flows[held].name, samples[held], model.predict(samples[held].grid)));
      }
      result.seeds.push_back(std::move(seedResult));
    }
    results.push_back(std::move(result));
  }

  Table table(
      "Congestion-map model accuracy on held-out designs (per-tile, vs "
      "routed truth)");
  table.setHeader({"Model", "Seed", "Held-out design", "V MAE", "H MAE",
                   "V IoU", "H IoU"});
  for (const TopologyResult& r : results)
    for (const SeedResult& seed : r.seeds)
      for (const DesignScore& s : seed.heldOut)
        table.addRow({r.name, std::to_string(seed.seed), s.design,
                      fmt(s.maeV), fmt(s.maeH), fmt(s.iouV, 3),
                      fmt(s.iouH, 3)});
  hcp::bench::emit(table, "mapnet_accuracy.csv");
  for (const TopologyResult& r : results) {
    double lo = 1.0, hi = 0.0;
    for (const SeedResult& seed : r.seeds) {
      lo = std::min(lo, seed.meanIoU());
      hi = std::max(hi, seed.meanIoU());
    }
    std::printf(
        "%-10s held-out mean MAE %6.2f%%  mean hotspot IoU %.3f "
        "(seeds %.3f-%.3f)\n",
        r.name.c_str(), r.meanMae(), r.meanIoU(), lo, hi);
  }

  support::txt::CheckedFileWriter writer("BENCH_mapnet.json", "benchout");
  auto& json = writer.stream();
  support::txt::preparePrecision(json);
  json << "{\n  \"threads\": " << support::threadLimit()
       << ",\n  \"protocol\": \"leave-one-design-out\",\n  \"models\": [\n";
  for (std::size_t m = 0; m < results.size(); ++m) {
    const TopologyResult& r = results[m];
    json << "    {\"topology\": \"" << r.name << "\""
         << ", \"mean_mae\": " << r.meanMae()
         << ", \"mean_hotspot_iou\": " << r.meanIoU() << ", \"seeds\": [\n";
    for (std::size_t k = 0; k < r.seeds.size(); ++k) {
      const SeedResult& seed = r.seeds[k];
      json << "      {\"seed\": " << seed.seed
           << ", \"mean_mae\": " << seed.meanMae()
           << ", \"mean_hotspot_iou\": " << seed.meanIoU()
           << ", \"held_out\": [\n";
      for (std::size_t i = 0; i < seed.heldOut.size(); ++i) {
        const DesignScore& s = seed.heldOut[i];
        json << "        {\"design\": \"" << s.design << "\""
             << ", \"mae_v\": " << s.maeV << ", \"mae_h\": " << s.maeH
             << ", \"hotspot_iou_v\": " << s.iouV
             << ", \"hotspot_iou_h\": " << s.iouH << "}"
             << (i + 1 < seed.heldOut.size() ? "," : "") << "\n";
      }
      json << "      ]}" << (k + 1 < r.seeds.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < results.size() ? "," : "") << "\n";
  }
  const double linearIoU = results[0].meanIoU();
  const double convIoU = results[1].meanIoU();
  json << "  ],\n  \"conv_minus_tilelinear_iou\": " << (convIoU - linearIoU)
       << "\n}\n";
  writer.commit();
  std::fprintf(stderr, "[mapnet] report written to BENCH_mapnet.json\n");

  // The accuracy gate: a conv net that cannot beat a per-tile linear map on
  // the hotspots of designs it never saw does not earn its code.
  HCP_CHECK_MSG(convIoU > linearIoU,
                "conv mean held-out hotspot IoU "
                    << convIoU << " does not beat the tilelinear baseline "
                    << linearIoU);
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("mapnet_accuracy", argc, argv, runBench);
}
