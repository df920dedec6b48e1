// Per-tile routing congestion map: the label the paper predicts.
//
// Vertical and horizontal routing demand are tracked separately per tile;
// utilization percentage = demand / channel capacity * 100. Values above
// 100% mean the router would have to divert routes around the region
// (paper §II). This is the exact quantity back-traced onto IR operations to
// form the training labels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fpga/device.hpp"

namespace hcp::fpga {

class CongestionMap {
 public:
  /// Empty map (0x0); useful as a default before routing runs.
  CongestionMap() : width_(0), height_(0), vCap_(1.0), hCap_(1.0) {}

  CongestionMap(std::uint32_t width, std::uint32_t height, double vCapacity,
                double hCapacity)
      : width_(width), height_(height), vCap_(vCapacity), hCap_(hCapacity),
        vDemand_(static_cast<std::size_t>(width) * height, 0.0),
        hDemand_(static_cast<std::size_t>(width) * height, 0.0) {}

  /// Builds a map with the device's per-tile capacities (column boosts).
  static CongestionMap forDevice(const Device& device) {
    CongestionMap map(device.width(), device.height(), device.vTracks(),
                      device.hTracks());
    map.vCapTile_.resize(map.vDemand_.size());
    map.hCapTile_.resize(map.hDemand_.size());
    for (std::uint32_t y = 0; y < map.height_; ++y) {
      for (std::uint32_t x = 0; x < map.width_; ++x) {
        map.vCapTile_[map.idx(x, y)] = device.vTracksAt(x, y);
        map.hCapTile_[map.idx(x, y)] = device.hTracksAt(x, y);
      }
    }
    return map;
  }

  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }

  void addVertical(std::uint32_t x, std::uint32_t y, double bits) {
    vDemand_[idx(x, y)] += bits;
  }
  void addHorizontal(std::uint32_t x, std::uint32_t y, double bits) {
    hDemand_[idx(x, y)] += bits;
  }
  void removeVertical(std::uint32_t x, std::uint32_t y, double bits) {
    vDemand_[idx(x, y)] -= bits;
  }
  void removeHorizontal(std::uint32_t x, std::uint32_t y, double bits) {
    hDemand_[idx(x, y)] -= bits;
  }

  double vDemand(std::uint32_t x, std::uint32_t y) const {
    return vDemand_[idx(x, y)];
  }
  double hDemand(std::uint32_t x, std::uint32_t y) const {
    return hDemand_[idx(x, y)];
  }

  /// Capacity of one tile (per-tile map when present, else the scalar).
  double vCapAt(std::uint32_t x, std::uint32_t y) const {
    return vCapTile_.empty() ? vCap_ : vCapTile_[idx(x, y)];
  }
  double hCapAt(std::uint32_t x, std::uint32_t y) const {
    return hCapTile_.empty() ? hCap_ : hCapTile_[idx(x, y)];
  }

  /// Utilization in percent (can exceed 100).
  double vUtil(std::uint32_t x, std::uint32_t y) const {
    return 100.0 * vDemand_[idx(x, y)] / vCapAt(x, y);
  }
  double hUtil(std::uint32_t x, std::uint32_t y) const {
    return 100.0 * hDemand_[idx(x, y)] / hCapAt(x, y);
  }
  double maxVUtil() const;
  double maxHUtil() const;
  double meanHUtil() const;

  /// Number of tiles whose vertical OR horizontal utilization exceeds
  /// `thresholdPercent` (the paper's "#Congested CLBs (>100%)").
  std::size_t tilesOver(double thresholdPercent) const;

  /// Box-blurred copy (window (2r+1)^2, demand and per-tile capacity both
  /// averaged). Vivado's congestion report is a windowed estimate over
  /// regions of tiles, not a single-tile count; back-tracing labels from the
  /// smoothed map matches that granularity.
  CongestionMap smoothed(std::uint32_t radius) const;

  /// ASCII heat map ('.' <25%, ':' <50%, '+' <75%, '#' <100%, '@' >=100%),
  /// one row per device row, for the Fig 1 / Fig 6 bench output.
  std::string toAscii(bool vertical) const;

  /// Per-tile V (or H) utilization in percent, row-major.
  std::vector<double> utilization(bool vertical) const;

  /// CSV with columns x,y,v_util,h_util.
  std::string toCsv() const;

  /// Text serialization (fpga/serialize.hpp; flow-cache format). Defined in
  /// fpga/serialize.cpp.
  void write(std::ostream& os) const;
  static CongestionMap read(std::istream& is);

 private:
  std::size_t idx(std::uint32_t x, std::uint32_t y) const {
    HCP_CHECK(x < width_ && y < height_);
    return static_cast<std::size_t>(y) * width_ + x;
  }

  std::uint32_t width_, height_;
  double vCap_, hCap_;
  std::vector<double> vDemand_, hDemand_;
  std::vector<double> vCapTile_, hCapTile_;  ///< empty = uniform capacity
};

}  // namespace hcp::fpga
