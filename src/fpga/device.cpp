#include "fpga/device.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace hcp::fpga {

Device::Device(Config config) : config_(std::move(config)) {
  HCP_CHECK(config_.width >= 8 && config_.height >= 8);
  types_.resize(numTiles(), TileType::Clb);

  auto isDspCol = [&](std::uint32_t x) {
    return std::find(config_.dspColumns.begin(), config_.dspColumns.end(),
                     x) != config_.dspColumns.end();
  };
  auto isBramCol = [&](std::uint32_t x) {
    return std::find(config_.bramColumns.begin(), config_.bramColumns.end(),
                     x) != config_.bramColumns.end();
  };

  for (std::uint32_t y = 0; y < config_.height; ++y) {
    for (std::uint32_t x = 0; x < config_.width; ++x) {
      TileType t = TileType::Clb;
      if (x == 0 || y == 0 || x == config_.width - 1 ||
          y == config_.height - 1) {
        t = TileType::Io;
      } else if (isDspCol(x)) {
        t = TileType::Dsp;
      } else if (isBramCol(x)) {
        t = TileType::Bram;
      }
      types_[index(x, y)] = t;
      byType_[static_cast<std::size_t>(t)].emplace_back(x, y);
      const TileCapacity cap = tileCapacity(x, y);
      totalLut_ += cap.lut;
      totalDsp_ += cap.dsp;
      totalBram_ += cap.bram;
    }
  }

  // Channel-capacity boost in and next to hard-block columns (column
  // breakout interconnect).
  boost_.assign(numTiles(), 1.0);
  auto isHardCol = [&](std::uint32_t x) {
    return isDspCol(x) || isBramCol(x);
  };
  for (std::uint32_t y = 0; y < config_.height; ++y) {
    for (std::uint32_t x = 0; x < config_.width; ++x) {
      const bool near = isHardCol(x) || (x > 0 && isHardCol(x - 1)) ||
                        (x + 1 < config_.width && isHardCol(x + 1));
      if (near) boost_[index(x, y)] = 1.6;
    }
  }
}

TileCapacity Device::tileCapacity(std::uint32_t x, std::uint32_t y) const {
  TileCapacity cap;
  switch (types_[index(x, y)]) {
    case TileType::Clb:
      cap.lut = config_.lutPerClb;
      cap.ff = config_.ffPerClb;
      break;
    case TileType::Dsp:
      cap.dsp = config_.dspPerTile;
      cap.ff = config_.ffPerClb / 4.0;  // DSP tiles carry some registers
      break;
    case TileType::Bram:
      cap.bram = config_.bramPerTile;
      break;
    case TileType::Io:
      break;
  }
  return cap;
}

Device Device::xc7z020like() {
  Config c;
  c.name = "xc7z020-like";
  // 88x82 interior ~= 6.6k CLB tiles after removing DSP/BRAM columns and the
  // I/O ring, matching the 53,200-LUT budget at 8 LUTs per CLB.
  c.width = 90;
  c.height = 84;
  // Three DSP columns (246 DSP48 slices) and four BRAM columns (328 RAMB18)
  // at one unit per tile — slightly above the real part's 220/280, keeping
  // one-unit cells one tile wide.
  c.dspColumns = {18, 45, 72};
  c.bramColumns = {9, 30, 58, 80};
  c.dspPerTile = 1.0;
  c.bramPerTile = 1.0;
  // Channel capacities in signal bits per tile per direction, calibrated so
  // a device-filling design sits around 60-75% average utilization (the
  // paper's Table III regime). 7-series interconnect is asymmetric; designs
  // saturate horizontal routing first, hence the lower H capacity.
  c.vTracks = 52.0;
  c.hTracks = 42.0;
  return Device(std::move(c));
}

double Device::centreRadius(std::uint32_t x, std::uint32_t y) const {
  const double cx = (config_.width - 1) / 2.0;
  const double cy = (config_.height - 1) / 2.0;
  const double dx = (static_cast<double>(x) - cx) / cx;
  const double dy = (static_cast<double>(y) - cy) / cy;
  return std::min(1.0, std::sqrt((dx * dx + dy * dy) / 2.0));
}

}  // namespace hcp::fpga
