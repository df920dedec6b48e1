// Congestion-*map* models: predict the full per-tile V/H utilization grid
// from placement-time grid features, instead of one scalar per IR op.
//
// Two fixed topologies (PAPERS.md: Painting-on-Placement predicts heatmaps
// with a conv net):
//
//   tilelinear  one shared linear map per tile (1x1 conv, C -> 2 heads) —
//               the baseline every learned variant must beat
//   conv        3x3 conv (C -> 8) + ReLU + 3x3 conv (8 -> 2): each tile sees
//               its 5x5 neighbourhood of features
//
// Both are trained with plain SGD (per-sample updates, epoch-shuffled by the
// model's own Rng, learning rate 0.05, L2 1e-5 on weights) on standardized
// inputs and targets, under the repository's determinism contract: the same
// samples and seed produce byte-identical weights at any --threads value.
// Parallel work (forward planes, weight-gradient accumulation) is split so
// each task owns its output slice and every floating-point sum runs in one
// fixed order.
//
// Serialization mirrors ml/serialize: header `hcp-mapmodel <topology> 2`,
// 17-digit doubles, loud failures (truncation, NaN weights, non-positive
// scaler stds, tensor-shape mismatches and other format versions all throw
// hcp::Error; loadMapModelFromFile names the file).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace hcp::ml {

/// One grid of input feature channels (row-major, width*height each). The
/// channel order contract is features::GridFeatures::channels().
struct GridSample {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::vector<double>> channels;

  std::size_t numTiles() const {
    return static_cast<std::size_t>(width) * height;
  }
};

/// A training example: features plus the routed ground-truth maps (percent
/// utilization per tile, the fpga::CongestionMap vUtil/hUtil values).
struct MapSample {
  GridSample grid;
  std::vector<double> vTarget;
  std::vector<double> hTarget;
};

/// A predicted (or ground-truth) V/H congestion map artifact. Serialized
/// through the shared text machinery, written via CheckedFileWriter (site
/// "mapout"), so it caches / fault-injects like every other artifact.
struct MapPrediction {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<double> vUtil;  ///< percent, row-major width*height
  std::vector<double> hUtil;

  std::size_t numTiles() const {
    return static_cast<std::size_t>(width) * height;
  }
  double maxVUtil() const;
  double maxHUtil() const;
  /// Tiles whose V or H utilization exceeds `thresholdPercent`.
  std::size_t tilesOver(double thresholdPercent) const;

  /// ASCII heat map, same glyph scale as fpga::CongestionMap::toAscii.
  std::string toAscii(bool vertical) const;
  /// CSV with columns x,y,v_util,h_util (fig1_map_*.csv schema).
  std::string toCsv() const;

  void write(std::ostream& os) const;
  static MapPrediction read(std::istream& is);
};

void saveMapPrediction(const MapPrediction& map, std::ostream& os);
/// Reads one map and rejects trailing garbage.
MapPrediction loadMapPrediction(std::istream& is);
/// Atomic, verified write (failpoint site "mapout"). Throws hcp::IoError.
void saveMapPredictionToFile(const MapPrediction& map,
                             const std::string& path);
/// Throws hcp::Error naming `path` on any parse failure.
MapPrediction loadMapPredictionFromFile(const std::string& path);

struct MapNetConfig {
  enum class Topology : std::uint8_t { kTileLinear, kConv };
  Topology topology = Topology::kConv;
  std::size_t epochs = 40;
  std::uint64_t seed = 7;
};

std::string_view topologyName(MapNetConfig::Topology t);
/// Throws hcp::Error on an unknown name (valid: tilelinear, conv).
MapNetConfig::Topology topologyFromName(const std::string& name);

class MapNet {
 public:
  explicit MapNet(MapNetConfig config = {}) : config_(std::move(config)) {}

  /// Trains on `data` (all samples must share the channel count; grid sizes
  /// may differ — the weights are shared across tiles). Deterministic under
  /// config.seed at any thread count.
  void fit(const std::vector<MapSample>& data);

  /// Predicts the V/H maps for one feature grid. Throws hcp::Error when the
  /// sample's channel count does not match the trained model.
  MapPrediction predict(const GridSample& grid) const;

  const MapNetConfig& config() const { return config_; }
  std::size_t inChannels() const { return inChannels_; }
  /// Mean training loss (standardized MSE) over the final epoch.
  double finalLoss() const { return finalLoss_; }
  std::size_t epochsRun() const { return epochsRun_; }

  /// Text serialization (saveMapModel / loadMapModel call these).
  void write(std::ostream& os) const;
  void read(std::istream& is);

 private:
  struct Workspace;
  void initWeights(Rng& rng);
  void forward(const std::vector<std::vector<double>>& x, std::uint32_t w,
               std::uint32_t h, Workspace& ws) const;
  double backwardAndStep(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& tv,
                         const std::vector<double>& th, Workspace& ws);
  void checkShapes() const;

  MapNetConfig config_;
  std::size_t inChannels_ = 0;
  std::vector<double> featMean_, featStd_;           ///< per input channel
  double vMean_ = 0.0, vStd_ = 1.0;                  ///< target scaling
  double hMean_ = 0.0, hStd_ = 1.0;
  // Weight storage by topology (unused tensors stay empty), H = 8:
  //   tilelinear: w1 [2][C], b1 [2]
  //   conv:       w1 [H][C][9], b1 [H], w2 [2][H][9], b2 [2]
  std::vector<double> w1_, b1_, w2_, b2_;
  std::size_t epochsRun_ = 0;
  double finalLoss_ = 0.0;
};

void saveMapModel(const MapNet& model, std::ostream& os);
MapNet loadMapModel(std::istream& is);
/// Atomic, verified write (failpoint site "mapmodel"). Throws hcp::IoError.
void saveMapModelToFile(const MapNet& model, const std::string& path);
/// Throws hcp::Error naming `path`; rejects trailing garbage.
MapNet loadMapModelFromFile(const std::string& path);

}  // namespace hcp::ml
