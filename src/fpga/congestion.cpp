#include "fpga/congestion.hpp"

#include <algorithm>
#include <sstream>

namespace hcp::fpga {

double CongestionMap::maxVUtil() const {
  double m = 0.0;
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x) m = std::max(m, vUtil(x, y));
  return m;
}

double CongestionMap::maxHUtil() const {
  double m = 0.0;
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x) m = std::max(m, hUtil(x, y));
  return m;
}

double CongestionMap::meanHUtil() const {
  double s = 0.0;
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x) s += hUtil(x, y);
  return s / static_cast<double>(hDemand_.size());
}

CongestionMap CongestionMap::smoothed(std::uint32_t radius) const {
  CongestionMap out = *this;
  if (radius == 0) return out;
  auto blur = [&](const std::vector<double>& src, std::vector<double>& dst) {
    for (std::uint32_t y = 0; y < height_; ++y) {
      for (std::uint32_t x = 0; x < width_; ++x) {
        double sum = 0.0;
        std::size_t count = 0;
        const std::uint32_t x0 = x > radius ? x - radius : 0;
        const std::uint32_t y0 = y > radius ? y - radius : 0;
        const std::uint32_t x1 = std::min(width_ - 1, x + radius);
        const std::uint32_t y1 = std::min(height_ - 1, y + radius);
        for (std::uint32_t yy = y0; yy <= y1; ++yy)
          for (std::uint32_t xx = x0; xx <= x1; ++xx) {
            sum += src[idx(xx, yy)];
            ++count;
          }
        dst[idx(x, y)] = sum / static_cast<double>(count);
      }
    }
  };
  std::vector<double> tmp(vDemand_.size());
  blur(vDemand_, tmp);
  out.vDemand_ = tmp;
  blur(hDemand_, tmp);
  out.hDemand_ = tmp;
  if (!vCapTile_.empty()) {
    blur(vCapTile_, tmp);
    out.vCapTile_ = tmp;
    blur(hCapTile_, tmp);
    out.hCapTile_ = tmp;
  }
  return out;
}

std::size_t CongestionMap::tilesOver(double thresholdPercent) const {
  std::size_t count = 0;
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x)
      if (vUtil(x, y) > thresholdPercent || hUtil(x, y) > thresholdPercent)
        ++count;
  return count;
}

std::string CongestionMap::toAscii(bool vertical) const {
  std::ostringstream os;
  for (std::uint32_t row = 0; row < height_; ++row) {
    const std::uint32_t y = height_ - 1 - row;  // row 0 on top
    for (std::uint32_t x = 0; x < width_; ++x) {
      const double u = vertical ? vUtil(x, y) : hUtil(x, y);
      char c = '.';
      if (u >= 100.0) c = '@';
      else if (u >= 75.0) c = '#';
      else if (u >= 50.0) c = '+';
      else if (u >= 25.0) c = ':';
      os << c;
    }
    os << "\n";
  }
  return os.str();
}

std::vector<double> CongestionMap::utilization(bool vertical) const {
  std::vector<double> out;
  out.reserve(vDemand_.size());
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x)
      out.push_back(vertical ? vUtil(x, y) : hUtil(x, y));
  return out;
}

std::string CongestionMap::toCsv() const {
  std::ostringstream os;
  os << "x,y,v_util,h_util\n";
  for (std::uint32_t y = 0; y < height_; ++y)
    for (std::uint32_t x = 0; x < width_; ++x)
      os << x << "," << y << "," << vUtil(x, y) << "," << hUtil(x, y)
         << "\n";
  return os.str();
}

}  // namespace hcp::fpga
