// Island-style FPGA device model.
//
// A rectangular grid of tiles: CLB tiles (LUT/FF capacity), DSP and BRAM
// columns at fixed x positions (as on real 7-series parts), and an I/O ring
// on the border for pads. Each tile also has a vertical and a horizontal
// routing-channel capacity in "wire-bits": the router charges one unit per
// signal bit routed through the tile in that direction, and congestion
// percentage is demand/capacity*100 — the same per-tile V/H metric Vivado's
// congestion report exposes and the paper back-traces (Fig 1, Fig 5).
//
// The xc7z020like() instance approximates a Zynq XC7Z020: ~6.6k CLBs
// (53,200 LUTs / 8), 220 DSP48 slices, 280 RAMB18 blocks. Horizontal channel
// capacity is set below vertical, reflecting 7-series interconnect where
// designs typically saturate horizontal routing first (the paper's Table III
// shows horizontal congestion consistently above vertical).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace hcp::fpga {

enum class TileType : std::uint8_t { Clb, Dsp, Bram, Io };

struct TileCapacity {
  double lut = 0.0;
  double ff = 0.0;
  double dsp = 0.0;
  double bram = 0.0;
};

class Device {
 public:
  struct Config {
    std::string name = "generic";
    std::uint32_t width = 0;   ///< tiles in x
    std::uint32_t height = 0;  ///< tiles in y
    std::vector<std::uint32_t> dspColumns;
    std::vector<std::uint32_t> bramColumns;
    double lutPerClb = 8.0;    ///< 7-series CLB = 2 slices x 4 LUT6
    double ffPerClb = 16.0;
    double dspPerTile = 1.0;   ///< DSP48 slices per DSP tile
    double bramPerTile = 1.0;  ///< RAMB18 per BRAM tile
    double vTracks = 28.0;     ///< vertical routing capacity per tile (bits)
    double hTracks = 20.0;     ///< horizontal routing capacity per tile
  };

  explicit Device(Config config);

  /// Approximation of the Zynq XC7Z020 (the paper's target device).
  static Device xc7z020like();

  const std::string& name() const { return config_.name; }
  /// The construction parameters — everything that shapes placement/routing.
  /// The flow-cache key fingerprints the device through this.
  const Config& config() const { return config_; }
  std::uint32_t width() const { return config_.width; }
  std::uint32_t height() const { return config_.height; }
  std::size_t numTiles() const {
    return static_cast<std::size_t>(config_.width) * config_.height;
  }

  TileType tileType(std::uint32_t x, std::uint32_t y) const {
    return types_[index(x, y)];
  }
  TileCapacity tileCapacity(std::uint32_t x, std::uint32_t y) const;

  double vTracks() const { return config_.vTracks; }
  double hTracks() const { return config_.hTracks; }

  /// Per-tile channel capacities. Tiles in or adjacent to DSP/BRAM columns
  /// get a boost, matching the richer interconnect real devices provide to
  /// ease column breakout.
  double vTracksAt(std::uint32_t x, std::uint32_t y) const {
    return config_.vTracks * boost_[index(x, y)];
  }
  double hTracksAt(std::uint32_t x, std::uint32_t y) const {
    return config_.hTracks * boost_[index(x, y)];
  }

  std::size_t index(std::uint32_t x, std::uint32_t y) const {
    HCP_CHECK_MSG(x < config_.width && y < config_.height,
                  "tile (" << x << "," << y << ") out of range");
    return static_cast<std::size_t>(y) * config_.width + x;
  }

  /// All tiles of a given type (precomputed; placement seeds from these).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& tilesOfType(
      TileType t) const {
    return byType_[static_cast<std::size_t>(t)];
  }

  /// Device-level totals (used for utilization-ratio features).
  double totalLut() const { return totalLut_; }
  double totalDsp() const { return totalDsp_; }
  double totalBram() const { return totalBram_; }

  /// Euclidean-free distance helpers.
  static std::uint32_t manhattan(std::uint32_t x0, std::uint32_t y0,
                                 std::uint32_t x1, std::uint32_t y1) {
    return (x0 > x1 ? x0 - x1 : x1 - x0) + (y0 > y1 ? y0 - y1 : y1 - y0);
  }

  /// Normalized distance of a tile from the device centre in [0, 1]
  /// (1 = corner). The paper's Fig 5 shows congestion concentrating in the
  /// centre; the marginal-sample filter keys off this radius.
  double centreRadius(std::uint32_t x, std::uint32_t y) const;

 private:
  Config config_;
  std::vector<TileType> types_;
  std::vector<double> boost_;  ///< per-tile channel-capacity multiplier
  std::array<std::vector<std::pair<std::uint32_t, std::uint32_t>>, 4> byType_;
  double totalLut_ = 0.0, totalDsp_ = 0.0, totalBram_ = 0.0;
};

}  // namespace hcp::fpga
