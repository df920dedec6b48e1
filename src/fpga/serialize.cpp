#include "fpga/serialize.hpp"

#include "support/textio.hpp"

namespace hcp::fpga {

namespace txt = support::txt;

// --- CongestionMap (declared in fpga/congestion.hpp) ------------------------

void CongestionMap::write(std::ostream& os) const {
  txt::preparePrecision(os);
  os << "congestion " << width_ << ' ' << height_ << ' ' << vCap_ << ' '
     << hCap_ << '\n';
  os << "vdemand ";
  txt::writeVec(os, vDemand_);
  os << "\nhdemand ";
  txt::writeVec(os, hDemand_);
  os << "\nvcaptile ";
  txt::writeVec(os, vCapTile_);
  os << "\nhcaptile ";
  txt::writeVec(os, hCapTile_);
  os << '\n';
}

CongestionMap CongestionMap::read(std::istream& is) {
  txt::expect(is, "congestion");
  const auto width = txt::read<std::uint32_t>(is, "congestion width");
  const auto height = txt::read<std::uint32_t>(is, "congestion height");
  const auto vCap = txt::read<double>(is, "congestion vCap");
  const auto hCap = txt::read<double>(is, "congestion hCap");
  CongestionMap map(width, height, vCap, hCap);
  const std::size_t tiles = static_cast<std::size_t>(width) * height;
  txt::expect(is, "vdemand");
  map.vDemand_ = txt::readVec<double>(is, "congestion vDemand");
  txt::expect(is, "hdemand");
  map.hDemand_ = txt::readVec<double>(is, "congestion hDemand");
  txt::expect(is, "vcaptile");
  map.vCapTile_ = txt::readVec<double>(is, "congestion vCapTile");
  txt::expect(is, "hcaptile");
  map.hCapTile_ = txt::readVec<double>(is, "congestion hCapTile");
  HCP_CHECK_MSG(map.vDemand_.size() == tiles &&
                    map.hDemand_.size() == tiles &&
                    (map.vCapTile_.empty() || map.vCapTile_.size() == tiles) &&
                    (map.hCapTile_.empty() || map.hCapTile_.size() == tiles),
                "congestion map dimensions do not match its vectors");
  return map;
}

void writeMapArtifact(std::ostream& os, const CongestionMap& map) {
  txt::preparePrecision(os);
  os << "hcp-map 1\n" << map.width() << ' ' << map.height() << '\n';
  os << "vutil ";
  txt::writeVec(os, map.utilization(true));
  os << "\nhutil ";
  txt::writeVec(os, map.utilization(false));
  os << '\n';
}

void saveMapArtifact(const CongestionMap& map, const std::string& path) {
  txt::CheckedFileWriter writer(path, "mapout");
  writeMapArtifact(writer.stream(), map);
  writer.commit();
}

// --- Implementation ---------------------------------------------------------

void writeImplementation(std::ostream& os, const Implementation& impl) {
  txt::preparePrecision(os);
  os << "impl\nclusters " << impl.packing.clusters.size() << '\n';
  for (const Cluster& c : impl.packing.clusters) {
    os << static_cast<unsigned>(c.site) << ' ';
    txt::writeVec(os, c.cells);
    os << ' ' << c.lut << ' ' << c.ff << ' ' << c.dsp << ' ' << c.bram << ' '
       << c.part << '\n';
  }
  os << "clusternets " << impl.packing.nets.size() << '\n';
  for (const ClusterNet& n : impl.packing.nets) {
    os << n.source << ' ' << n.width << ' ' << n.driver << ' ';
    txt::writeVec(os, n.sinks);
    os << '\n';
  }
  os << "clustersofcell " << impl.packing.clustersOfCell.size() << '\n';
  for (const auto& clusters : impl.packing.clustersOfCell) {
    txt::writeVec(os, clusters);
    os << '\n';
  }
  os << "placement " << impl.placement.tileOfCluster.size() << '\n';
  for (const TileXY& t : impl.placement.tileOfCluster)
    os << t.x << ' ' << t.y << '\n';
  os << "placestats " << impl.placement.cost << ' '
     << impl.placement.movesAccepted << ' ' << impl.placement.movesTried
     << '\n';
  impl.routing.map.write(os);
  os << "routes " << impl.routing.routes.size() << '\n';
  for (const auto& route : impl.routing.routes) {
    os << route.size();
    for (const RouteStep& s : route) {
      os << ' ' << s.x << ' ' << s.y << ' ';
      txt::writeBool(os, s.vertical);
    }
    os << '\n';
  }
  os << "routestats " << impl.routing.totalWirelength << ' '
     << impl.routing.overflowTiles << ' ' << impl.routing.iterationsRun
     << '\n';
  os << "timing " << impl.timing.criticalPathNs << ' ' << impl.timing.wnsNs
     << ' ' << impl.timing.maxFrequencyMhz << ' '
     << impl.timing.combinationalCycleCells << ' '
     << impl.timing.criticalNet << '\n';
}

Implementation readImplementation(std::istream& is) {
  txt::expect(is, "impl");
  Implementation impl;
  txt::expect(is, "clusters");
  const auto numClusters = txt::read<std::size_t>(is, "cluster count");
  impl.packing.clusters.reserve(numClusters);
  for (std::size_t i = 0; i < numClusters; ++i) {
    Cluster c;
    const auto site = txt::read<unsigned>(is, "cluster site");
    HCP_CHECK_MSG(site <= static_cast<unsigned>(TileType::Io),
                  "cluster site out of range: " << site);
    c.site = static_cast<TileType>(site);
    c.cells = txt::readVec<rtl::CellId>(is, "cluster cells");
    c.lut = txt::read<double>(is, "cluster lut");
    c.ff = txt::read<double>(is, "cluster ff");
    c.dsp = txt::read<double>(is, "cluster dsp");
    c.bram = txt::read<double>(is, "cluster bram");
    c.part = txt::read<std::uint32_t>(is, "cluster part");
    impl.packing.clusters.push_back(std::move(c));
  }
  txt::expect(is, "clusternets");
  const auto numNets = txt::read<std::size_t>(is, "cluster net count");
  impl.packing.nets.reserve(numNets);
  for (std::size_t i = 0; i < numNets; ++i) {
    ClusterNet n;
    n.source = txt::read<rtl::NetId>(is, "cluster net source");
    n.width = txt::read<std::uint16_t>(is, "cluster net width");
    n.driver = txt::read<ClusterId>(is, "cluster net driver");
    n.sinks = txt::readVec<ClusterId>(is, "cluster net sinks");
    impl.packing.nets.push_back(std::move(n));
  }
  txt::expect(is, "clustersofcell");
  const auto numCells = txt::read<std::size_t>(is, "clustersOfCell count");
  impl.packing.clustersOfCell.reserve(numCells);
  for (std::size_t i = 0; i < numCells; ++i)
    impl.packing.clustersOfCell.push_back(
        txt::readVec<ClusterId>(is, "clustersOfCell"));
  txt::expect(is, "placement");
  const auto numPlaced = txt::read<std::size_t>(is, "placement count");
  HCP_CHECK_MSG(numPlaced == numClusters,
                "placement covers " << numPlaced << " clusters, packing has "
                                    << numClusters);
  impl.placement.tileOfCluster.reserve(numPlaced);
  for (std::size_t i = 0; i < numPlaced; ++i) {
    TileXY t;
    t.x = txt::read<std::uint32_t>(is, "placement x");
    t.y = txt::read<std::uint32_t>(is, "placement y");
    impl.placement.tileOfCluster.push_back(t);
  }
  txt::expect(is, "placestats");
  impl.placement.cost = txt::read<double>(is, "placement cost");
  impl.placement.movesAccepted =
      txt::read<std::uint64_t>(is, "placement movesAccepted");
  impl.placement.movesTried =
      txt::read<std::uint64_t>(is, "placement movesTried");
  impl.routing.map = CongestionMap::read(is);
  txt::expect(is, "routes");
  const auto numRoutes = txt::read<std::size_t>(is, "route count");
  impl.routing.routes.reserve(numRoutes);
  for (std::size_t i = 0; i < numRoutes; ++i) {
    const auto numSteps = txt::read<std::size_t>(is, "route step count");
    std::vector<RouteStep> route;
    route.reserve(numSteps);
    for (std::size_t s = 0; s < numSteps; ++s) {
      RouteStep step;
      step.x = txt::read<std::uint32_t>(is, "route step x");
      step.y = txt::read<std::uint32_t>(is, "route step y");
      step.vertical = txt::readBool(is, "route step vertical");
      route.push_back(step);
    }
    impl.routing.routes.push_back(std::move(route));
  }
  txt::expect(is, "routestats");
  impl.routing.totalWirelength =
      txt::read<double>(is, "routing totalWirelength");
  impl.routing.overflowTiles =
      txt::read<std::size_t>(is, "routing overflowTiles");
  impl.routing.iterationsRun = txt::read<int>(is, "routing iterationsRun");
  txt::expect(is, "timing");
  impl.timing.criticalPathNs = txt::read<double>(is, "timing criticalPathNs");
  impl.timing.wnsNs = txt::read<double>(is, "timing wnsNs");
  impl.timing.maxFrequencyMhz =
      txt::read<double>(is, "timing maxFrequencyMhz");
  impl.timing.combinationalCycleCells =
      txt::read<std::size_t>(is, "timing combinationalCycleCells");
  impl.timing.criticalNet = txt::read<rtl::NetId>(is, "timing criticalNet");
  return impl;
}

// --- Key inputs -------------------------------------------------------------

void writeDeviceFingerprint(std::ostream& os, const Device& device) {
  txt::preparePrecision(os);
  const Device::Config& c = device.config();
  os << "device ";
  txt::writeStr(os, c.name);
  os << ' ' << c.width << ' ' << c.height << " dsp ";
  txt::writeVec(os, c.dspColumns);
  os << " bram ";
  txt::writeVec(os, c.bramColumns);
  os << ' ' << c.lutPerClb << ' ' << c.ffPerClb << ' ' << c.dspPerTile << ' '
     << c.bramPerTile << ' ' << c.vTracks << ' ' << c.hTracks << '\n';
}

void writeParConfig(std::ostream& os, const ParConfig& config) {
  txt::preparePrecision(os);
  os << "parconfig " << config.placer.seed << ' ' << config.placer.effort
     << ' ' << config.placer.coolingRate << ' ' << config.placer.stopFraction
     << ' ' << config.placer.regionSize << ' '
     << config.placer.supplyFraction << ' ' << config.placer.densityWeight
     << ' ' << config.router.maxIterations << ' '
     << config.router.historyGain << ' '
     << config.router.presentFactorGrowth << ' ' << config.router.bboxMargin
     << ' ' << config.timing.targetClockNs << ' '
     << config.timing.clockUncertaintyNs << ' '
     << config.timing.netBaseDelayNs << ' ' << config.timing.perTileDelayNs
     << ' ' << config.timing.congestionPenaltyNs << ' '
     << config.timing.maxOverflowFraction << ' ' << config.timing.setupNs
     << '\n';
}

}  // namespace hcp::fpga
