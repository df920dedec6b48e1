#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "apps/digit_spam.hpp"
#include "fpga/packer.hpp"
#include "fpga/placer.hpp"
#include "fpga/router.hpp"
#include "hls/design.hpp"
#include "rtl/generator.hpp"
#include "support/envelope.hpp"
#include "support/telemetry.hpp"

namespace hcp::fpga {
namespace {

/// Manual packing/placement of point-to-point nets for routing tests.
struct Fixture {
  Packing packing;
  Placement placement;

  ClusterId addClusterAt(std::uint32_t x, std::uint32_t y) {
    Cluster c;
    c.site = TileType::Clb;
    packing.clusters.push_back(c);
    placement.tileOfCluster.push_back({x, y});
    return static_cast<ClusterId>(packing.clusters.size() - 1);
  }

  void addNet(ClusterId from, std::vector<ClusterId> to,
              std::uint16_t width) {
    ClusterNet net;
    net.width = width;
    net.driver = from;
    net.sinks = std::move(to);
    packing.nets.push_back(std::move(net));
  }
};

TEST(Router, RouteLengthIsManhattanWhenUncongested) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(25, 30);
  f.addNet(a, {b}, 8);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  EXPECT_EQ(result.routes[0].size(), 15u + 20u);
  EXPECT_EQ(result.overflowTiles, 0u);
}

TEST(Router, DemandEqualsWidthAlongRoute) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(20, 10);  // pure horizontal
  f.addNet(a, {b}, 12);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  double totalH = 0.0;
  for (std::uint32_t x = 0; x < dev.width(); ++x)
    for (std::uint32_t y = 0; y < dev.height(); ++y)
      totalH += result.map.hDemand(x, y);
  EXPECT_DOUBLE_EQ(totalH, 12.0 * 10.0);
}

TEST(Router, MultiTerminalTreeSharesTrunk) {
  Fixture f;
  const auto src = f.addClusterAt(10, 40);
  const auto s1 = f.addClusterAt(40, 40);
  const auto s2 = f.addClusterAt(40, 42);
  f.addNet(src, {s1, s2}, 8);
  const Device dev = Device::xc7z020like();
  const auto result = route(f.packing, f.placement, dev, {});
  // A Steiner-ish tree is far shorter than two independent routes
  // (2 x 30ish); the shared trunk means total ~32-40 steps.
  EXPECT_LT(result.routes[0].size(), 45u);
  EXPECT_GE(result.routes[0].size(), 32u);
}

TEST(Router, NegotiationSpreadsOverflow) {
  // Many wide nets crossing the same corridor.
  Fixture f;
  const Device dev = Device::xc7z020like();
  for (int i = 0; i < 12; ++i) {
    const auto a = f.addClusterAt(20, 38 + (i % 3));
    const auto b = f.addClusterAt(50, 38 + (i % 3));
    f.addNet(a, {b}, 24);
  }
  RouterConfig oneShot;
  oneShot.maxIterations = 1;
  RouterConfig negotiated;
  negotiated.maxIterations = 8;
  negotiated.bboxMargin = 12;
  const auto first = route(f.packing, f.placement, dev, oneShot);
  const auto final = route(f.packing, f.placement, dev, negotiated);
  EXPECT_LE(final.map.maxHUtil(), first.map.maxHUtil());
}

TEST(Router, DeterministicResults) {
  Fixture f;
  hcp::Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto a = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    const auto b = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    f.addNet(a, {b}, 8);
  }
  const Device dev = Device::xc7z020like();
  const auto r1 = route(f.packing, f.placement, dev, {});
  const auto r2 = route(f.packing, f.placement, dev, {});
  ASSERT_EQ(r1.routes.size(), r2.routes.size());
  for (std::size_t n = 0; n < r1.routes.size(); ++n)
    EXPECT_EQ(r1.routes[n].size(), r2.routes[n].size());
  EXPECT_DOUBLE_EQ(r1.totalWirelength, r2.totalWirelength);
}

/// Thirty random point-to-point nets plus a corridor of twelve wide nets
/// that overflows, so negotiation rips up and reroutes for several
/// iterations.
Fixture congestedFixture() {
  Fixture f;
  hcp::Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const auto a = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    const auto b = f.addClusterAt(5 + rng.uniformInt(60),
                                  5 + rng.uniformInt(60));
    f.addNet(a, {b}, 8);
  }
  for (int i = 0; i < 12; ++i) {  // congested corridor
    const auto a = f.addClusterAt(20, 38 + (i % 3));
    const auto b = f.addClusterAt(50, 38 + (i % 3));
    f.addNet(a, {b}, 24);
  }
  return f;
}

/// The packed spam_filter design and its placement at seed 42, effort 4:
/// the flow's own net mix.
Packing spamFilterPacking(const Device& dev) {
  auto app = apps::spamFilter();
  const auto design =
      hls::synthesize(std::move(app.module), app.directives, {});
  return pack(rtl::generateRtl(design).netlist, dev);
}

Placement spamFilterPlacement(const Packing& packing, const Device& dev) {
  PlacerConfig placer;
  placer.seed = 42;
  placer.effort = 4.0;
  return place(packing, dev, placer);
}

/// FNV-1a digest of everything a routing decides: iteration and overflow
/// counts, the bits of the routed wirelength, every step of every route and
/// both demand planes.
std::string routingDigest(const RoutingResult& r, const Device& dev) {
  support::Fnv1a h;
  h.u64(static_cast<std::uint64_t>(r.iterationsRun))
      .u64(r.overflowTiles)
      .f64(r.totalWirelength);
  for (const auto& steps : r.routes) {
    h.u64(steps.size());
    for (const RouteStep& s : steps) h.u64(s.x).u64(s.y).u64(s.vertical);
  }
  for (std::uint32_t y = 0; y < dev.height(); ++y)
    for (std::uint32_t x = 0; x < dev.width(); ++x)
      h.f64(r.map.vDemand(x, y)).f64(r.map.hDemand(x, y));
  return h.hex();
}

/// Routes and returns how many tiles the sink searches settled (the
/// `router_tiles_settled` delta). The digest pins what the searches
/// return; the settled count pins how much work they did, which the open
/// list's order among entries of equal f can change without changing any
/// route.
std::uint64_t routeSettled(const Fixture& f, const Device& dev,
                           const RouterConfig& cfg, RoutingResult& out) {
  namespace tm = support::telemetry;
  const bool wasEnabled = tm::enabled();
  tm::setEnabled(true);
  const std::uint64_t before =
      tm::snapshot().counter(tm::Counter::RouterTilesSettled);
  out = route(f.packing, f.placement, dev, cfg);
  const std::uint64_t after =
      tm::snapshot().counter(tm::Counter::RouterTilesSettled);
  tm::setEnabled(wasEnabled);
  return after - before;
}

// Golden routings. The first two digests were written while the full-grid
// overflow/history sweep still existed and was asserted byte-identical to
// the dirty-tile sweep on exactly these inputs, so they are that reference
// sweep's output. The rest were written while the sink search was plain
// Dijkstra: negotiated costs that vary per tile, equal-cost ties on an
// empty device, and a zero margin where the search window is the
// terminals' bounding box. A change that must not alter routes passes
// these unedited; one that alters them on purpose updates the literals in
// the same commit.

TEST(Router, GoldenCongestedFixture) {
  const Fixture f = congestedFixture();
  const Device dev = Device::xc7z020like();
  RouterConfig cfg;
  cfg.maxIterations = 8;
  const auto r = route(f.packing, f.placement, dev, cfg);
  EXPECT_GT(r.iterationsRun, 1) << "fixture failed to congest";
  EXPECT_EQ(routingDigest(r, dev), "9e42206fc91c9a46");
}

TEST(Router, GoldenSpamFilter) {
  const Device dev = Device::xc7z020like();
  const auto packing = spamFilterPacking(dev);
  const auto r = route(packing, spamFilterPlacement(packing, dev), dev, {});
  EXPECT_EQ(routingDigest(r, dev), "9fce3f5a8270f01e");
}

/// `n` clusters on random tiles of a square a little wider than sqrt(n),
/// with n random nets: widths 1-16, ~80% of them 1-4 sinks and the rest
/// 6-23. The larger squares are dense enough that channels overflow, so
/// over several iterations the history and present costs differ from tile
/// to tile.
Fixture randomFixture(std::uint64_t seed, std::size_t n) {
  Fixture f;
  hcp::Rng rng(seed);
  const auto side = static_cast<std::uint32_t>(4 + std::sqrt(double(n)));
  for (std::size_t i = 0; i < n; ++i)
    f.addClusterAt(10 + static_cast<std::uint32_t>(rng.uniformInt(side)),
                   10 + static_cast<std::uint32_t>(rng.uniformInt(side)));
  for (std::size_t i = 0; i < n; ++i) {
    const auto width = static_cast<std::uint16_t>(1 + rng.uniformInt(16));
    const auto driver = static_cast<ClusterId>(rng.uniformInt(n));
    const std::size_t fanout =
        rng.uniformInt(5) == 0 ? 6 + rng.uniformInt(18) : 1 + rng.uniformInt(4);
    std::set<ClusterId> sinks;
    for (std::size_t s = 0; s < fanout; ++s) {
      const auto c = static_cast<ClusterId>(rng.uniformInt(n));
      if (c != driver) sinks.insert(c);
    }
    if (!sinks.empty())
      f.addNet(driver, {sinks.begin(), sinks.end()}, width);
  }
  return f;
}

/// Narrow multi-sink nets far apart on an empty device: every step costs
/// exactly 1, so each sink has many least-cost paths and the tie rule
/// alone picks the route.
Fixture tieFixture() {
  Fixture f;
  const std::uint32_t origins[][2] = {{8, 8}, {50, 10}, {12, 52}, {55, 50}};
  for (const auto& o : origins) {
    const auto src = f.addClusterAt(o[0] + 6, o[1] + 6);
    std::vector<ClusterId> sinks;
    for (const std::uint32_t d : {0u, 3u, 9u, 12u})
      sinks.push_back(f.addClusterAt(o[0] + d, o[1] + 12 - d));
    sinks.push_back(f.addClusterAt(o[0] + 12, o[1] + 12));
    sinks.push_back(f.addClusterAt(o[0], o[1]));
    f.addNet(src, sinks, 1);
  }
  const auto a = f.addClusterAt(30, 70);
  const auto b = f.addClusterAt(40, 80);
  f.addNet(a, {b}, 1);
  return f;
}

TEST(Router, GoldenRandomFixtures) {
  struct Case {
    std::uint64_t seed;
    std::size_t n;
    const char* digest;
    std::uint64_t settled;
  };
  const Case cases[] = {
      {1, 24, "b5253e3e077f5f63", 4777},
      {1, 120, "b54e05f6d71ea926", 129745},
      {1, 360, "9b65f121ac175191", 1668426},
      {7, 24, "fcf6540b3825e7f3", 2637},
      {7, 120, "978d6a2b16912eab", 131916},
      {7, 360, "99b33492ef82e0c7", 1659135},
      {42, 24, "e82d53c7c88db951", 2013},
      {42, 120, "16e6c25eb7856a2b", 100330},
      {42, 360, "8fc0390fbf76e934", 1553472},
  };
  const Device dev = Device::xc7z020like();
  RouterConfig cfg;
  cfg.maxIterations = 8;
  for (const Case& c : cases) {
    const Fixture f = randomFixture(c.seed * 1000 + c.n, c.n);
    RoutingResult r;
    const std::uint64_t settled = routeSettled(f, dev, cfg, r);
    EXPECT_GT(r.iterationsRun, 1) << "seed " << c.seed << " n " << c.n;
    EXPECT_EQ(routingDigest(r, dev), c.digest)
        << "seed " << c.seed << " n " << c.n;
    EXPECT_EQ(settled, c.settled) << "seed " << c.seed << " n " << c.n;
  }
}

TEST(Router, GoldenEqualCostTies) {
  const Fixture f = tieFixture();
  const Device dev = Device::xc7z020like();
  RoutingResult r;
  EXPECT_EQ(routeSettled(f, dev, {}, r), 1356u);
  EXPECT_EQ(r.iterationsRun, 1);
  EXPECT_EQ(r.overflowTiles, 0u);
  EXPECT_EQ(routingDigest(r, dev), "be0aa7e1a2d519dc");
}

TEST(Router, GoldenZeroMargin) {
  const Device dev = Device::xc7z020like();
  RouterConfig cfg;
  cfg.maxIterations = 8;
  cfg.bboxMargin = 0;
  RoutingResult r;
  EXPECT_EQ(routeSettled(tieFixture(), dev, cfg, r), 912u);
  EXPECT_EQ(routingDigest(r, dev), "be0aa7e1a2d519dc");
  EXPECT_EQ(routeSettled(randomFixture(5120, 120), dev, cfg, r), 90687u);
  EXPECT_EQ(routingDigest(r, dev), "560720043e734504");
}

TEST(Router, UtilizationAccountsCapacityBoost) {
  // Same demand on a boosted tile (next to a DSP column) yields lower
  // utilization than on a plain tile.
  const Device dev = Device::xc7z020like();
  CongestionMap map = CongestionMap::forDevice(dev);
  map.addHorizontal(19, 10, 20.0);  // boosted (next to x=18 DSP column)
  map.addHorizontal(13, 10, 20.0);  // plain
  EXPECT_LT(map.hUtil(19, 10), map.hUtil(13, 10));
}

TEST(Router, RudyEstimateCoversBbox) {
  Fixture f;
  const auto a = f.addClusterAt(10, 10);
  const auto b = f.addClusterAt(20, 20);
  f.addNet(a, {b}, 10);
  const Device dev = Device::xc7z020like();
  const auto rudy = estimateRudy(f.packing, f.placement, dev);
  // The 11x11 box holds the net's 10 tiles of H and of V wiring, spread
  // evenly: 10 bits * 10 tiles / 121 tiles on every tile inside it, 0
  // everywhere else.
  const double perTile = 10.0 * 10.0 / 121.0;
  for (std::uint32_t y = 0; y < dev.height(); ++y)
    for (std::uint32_t x = 0; x < dev.width(); ++x) {
      const bool inside = x >= 10 && x <= 20 && y >= 10 && y <= 20;
      EXPECT_DOUBLE_EQ(rudy.hDemand(x, y), inside ? perTile : 0.0)
          << x << "," << y;
      EXPECT_DOUBLE_EQ(rudy.vDemand(x, y), inside ? perTile : 0.0)
          << x << "," << y;
    }
}

TEST(Router, RudyOneColumnNetHasNoHorizontalDemand) {
  Fixture f;
  const auto a = f.addClusterAt(12, 5);
  const auto b = f.addClusterAt(12, 25);
  f.addNet(a, {b}, 8);
  const Device dev = Device::xc7z020like();
  const auto rudy = estimateRudy(f.packing, f.placement, dev);
  // A 1x21 box: 8 bits * 20 tiles / 21 tiles of V demand down the column.
  for (std::uint32_t y = 0; y < dev.height(); ++y)
    for (std::uint32_t x = 0; x < dev.width(); ++x) {
      EXPECT_EQ(rudy.hDemand(x, y), 0.0) << x << "," << y;
      const bool inside = x == 12 && y >= 5 && y <= 25;
      EXPECT_DOUBLE_EQ(rudy.vDemand(x, y), inside ? 8.0 * 20.0 / 21.0 : 0.0)
          << x << "," << y;
    }
}

TEST(CongestionMapTest, SmoothingPreservesTotalDemand) {
  CongestionMap map(20, 20, 10, 10);
  map.addHorizontal(10, 10, 100.0);
  const auto smooth = map.smoothed(2);
  double before = 0.0, after = 0.0;
  for (std::uint32_t y = 0; y < 20; ++y)
    for (std::uint32_t x = 0; x < 20; ++x) {
      before += map.hDemand(x, y);
      after += smooth.hDemand(x, y);
    }
  // Interior blur preserves mass up to boundary effects.
  EXPECT_NEAR(after, before, before * 0.05);
  EXPECT_LT(smooth.hDemand(10, 10), map.hDemand(10, 10));
  EXPECT_GT(smooth.hDemand(12, 10), 0.0);
}

TEST(CongestionMapTest, TilesOverThreshold) {
  CongestionMap map(8, 8, 10, 10);
  map.addVertical(2, 2, 15.0);   // 150%
  map.addHorizontal(3, 3, 9.0);  // 90%
  EXPECT_EQ(map.tilesOver(100.0), 1u);
  EXPECT_EQ(map.tilesOver(80.0), 2u);
}

TEST(CongestionMapTest, AsciiArtBuckets) {
  CongestionMap map(4, 4, 10, 10);
  map.addVertical(0, 3, 12.0);  // >=100% -> '@' (top-left in output)
  const std::string art = map.toAscii(true);
  EXPECT_EQ(art[0], '@');
  EXPECT_NE(art.find('.'), std::string::npos);
}

TEST(CongestionMapTest, CsvHasHeaderAndRows) {
  CongestionMap map(2, 2, 10, 10);
  const std::string csv = map.toCsv();
  EXPECT_EQ(csv.rfind("x,y,v_util,h_util", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

}  // namespace
}  // namespace hcp::fpga
