#include "fpga/placer.hpp"

#include <algorithm>
#include <cmath>

#include "support/telemetry.hpp"

namespace hcp::fpga {

namespace {

class Annealer {
 public:
  Annealer(const Packing& packing, const Device& device,
           const PlacerConfig& config)
      : packing_(packing), device_(device), config_(config),
        rng_(config.seed) {}

  Placement run() {
    seedInitial();
    buildIndex();
    buildRegions();
    double cost = fullCost();

    const std::size_t n = packing_.clusters.size();
    const auto movesPerT = static_cast<std::uint64_t>(
        std::max(64.0, config_.effort * static_cast<double>(n)));

    // Initial temperature: std-dev of random-move deltas (classic VPR rule).
    double t = initialTemperature(cost);
    const double tStop = std::max(1e-9, t * config_.stopFraction);
    double range = 1.0;  // window as fraction of device span

    Placement result;
    while (t > tStop) {
      const std::uint64_t accepted = sweep(t, range, movesPerT, result, cost);
#ifndef NDEBUG
      // Debug-build drift check: the running cost minus the accumulated
      // density deltas is pure HPWL and must agree with a from-scratch
      // recount at every temperature step, so a future hot-path edit that
      // corrupts the box updates fails loudly here instead of silently
      // degrading QoR. (The density deltas themselves cannot be checked
      // against a recount of the total penalty: the golden-pinned swap
      // delta is not an exact difference of the quadratic penalty — see
      // densityRunning_.) Tolerance covers benign FP accumulation over
      // millions of exact per-move deltas.
      {
        const double hpwl = fullCost();
        const double running = cost - densityRunning_;
        HCP_CHECK_MSG(
            std::abs(running - hpwl) <= 1e-6 * std::max(1.0, std::abs(hpwl)),
            "placer incremental cost drift: running hpwl=" << running
                << " recomputed=" << hpwl << " at T=" << t);
        // The density *bookkeeping* is guarded separately: region pin
        // loads must match a from-scratch recount of committed positions.
        std::vector<double> pins(regionPins_.size(), 0.0);
        for (ClusterId c = 0; c < packing_.clusters.size(); ++c)
          pins[regionOf(tileOf_[c])] += clusterPins_[c];
        for (std::size_t r = 0; r < pins.size(); ++r)
          HCP_CHECK_MSG(
              std::abs(regionPins_[r] - pins[r]) <=
                  1e-6 * std::max(1.0, std::abs(pins[r])),
              "placer region pin drift: region " << r << " tracked="
                  << regionPins_[r] << " recomputed=" << pins[r]);
      }
#endif
      // Adapt the window toward a 44% acceptance target (VPR heuristic).
      const double rate =
          static_cast<double>(accepted) / static_cast<double>(movesPerT);
      range = std::clamp(range * (rate > 0.44 ? 1.15 : 0.9), 0.02, 1.0);
      // Above 80% acceptance the anneal is a random walk that improves
      // nothing, so halve the temperature there (VPR's fastest cooling
      // step); from the first step below it, cool at the configured rate.
      t *= rate > 0.8 ? 0.5 : config_.coolingRate;
    }
    result.tileOfCluster = tileOf_;
    // One final from-scratch recount, NOT the running cost: Placement::cost
    // is defined as pure bit-weighted HPWL, while the running value also
    // carries density-penalty deltas.
    result.cost = fullCost();
    return result;
  }

  std::uint64_t boxRescans() const { return boxRescans_; }

 private:
  static constexpr double kRejected =
      std::numeric_limits<double>::infinity();

  /// exp(-x) < 2^-53 for every x above this (exp(-37) ≈ 8.5e-17, safely
  /// under 2^-53 ≈ 1.11e-16), which is what the accept-test shortcut in
  /// run() relies on.
  static constexpr double kExpUnderflow = 37.0;

  // --- congestion-driven spreading ---------------------------------------
  std::uint32_t regionOf(TileXY t) const {
    const std::uint32_t rs = std::max(1u, config_.regionSize);
    const std::uint32_t rw = (device_.width() + rs - 1) / rs;
    return (t.y / rs) * rw + (t.x / rs);
  }

  /// Table-driven regionOf for the per-move path: two loads from
  /// coordinate-indexed tables that together total a few hundred bytes (so
  /// they live in L1), instead of two integer divisions or a lookup in a
  /// tile-indexed table that is device-sized and misses to L2.
  std::uint32_t regionOfFast(TileXY t) const {
    return yRegionRow_[t.y] + xRegionCol_[t.x];
  }

  void buildRegions() {
    const std::uint32_t rs = std::max(1u, config_.regionSize);
    const std::uint32_t rw = (device_.width() + rs - 1) / rs;
    const std::uint32_t rh = (device_.height() + rs - 1) / rs;
    regionPins_.assign(static_cast<std::size_t>(rw) * rh, 0.0);
    regionSupply_.assign(regionPins_.size(), 0.0);
    xRegionCol_.resize(device_.width());
    for (std::uint32_t x = 0; x < device_.width(); ++x)
      xRegionCol_[x] = x / rs;
    yRegionRow_.resize(device_.height());
    for (std::uint32_t y = 0; y < device_.height(); ++y)
      yRegionRow_[y] = (y / rs) * rw;
    for (std::uint32_t y = 0; y < device_.height(); ++y)
      for (std::uint32_t x = 0; x < device_.width(); ++x) {
        regionSupply_[regionOf({x, y})] +=
            config_.supplyFraction *
            (device_.vTracksAt(x, y) + device_.hTracksAt(x, y)) / 2.0;
      }
    clusterPins_.assign(packing_.clusters.size(), 0.0);
    for (const ClusterNet& net : packing_.nets) {
      clusterPins_[net.driver] += net.width;
      for (ClusterId s : net.sinks) clusterPins_[s] += net.width;
    }
    for (ClusterId c = 0; c < packing_.clusters.size(); ++c)
      regionPins_[regionOf(tileOf_[c])] += clusterPins_[c];
    regionPenaltyCache_.resize(regionPins_.size());
    for (std::size_t r = 0; r < regionPins_.size(); ++r)
      regionPenaltyCache_[r] = regionPenalty(r);
  }

  double regionPenalty(std::size_t region) const {
    const double over = regionPins_[region] - regionSupply_[region];
    if (over <= 0.0) return 0.0;
    return config_.densityWeight * over * over / regionSupply_[region];
  }

  /// Penalty delta of moving `pins` from region a to region b. The
  /// pre-move penalties are read from the commit-time cache instead of
  /// recomputed, which drops up to two FP divisions from every evaluated
  /// move; the cached doubles are bitwise what regionPenalty() returns.
  double densityDelta(std::size_t a, std::size_t b, double pins) const {
    if (a == b || pins == 0.0 || config_.densityWeight <= 0.0) return 0.0;
    const double before = regionPenaltyCache_[a] + regionPenaltyCache_[b];
    const double overA = regionPins_[a] - pins - regionSupply_[a];
    const double overB = regionPins_[b] + pins - regionSupply_[b];
    double after = 0.0;
    if (overA > 0) after += config_.densityWeight * overA * overA /
                            regionSupply_[a];
    if (overB > 0) after += config_.densityWeight * overB * overB /
                            regionSupply_[b];
    return after - before;
  }

  void seedInitial() {
    tileOf_.resize(packing_.clusters.size());
    occupant_.assign(device_.numTiles(), kNone);
    // Shuffle tiles per class, assign clusters in order.
    for (std::size_t t = 0; t < 4; ++t) {
      auto tiles = device_.tilesOfType(static_cast<TileType>(t));
      rng_.shuffle(tiles);
      std::size_t next = 0;
      for (ClusterId c = 0; c < packing_.clusters.size(); ++c) {
        if (static_cast<std::size_t>(packing_.clusters[c].site) != t)
          continue;
        HCP_CHECK(next < tiles.size());
        const auto [x, y] = tiles[next++];
        tileOf_[c] = {x, y};
        occupant_[device_.index(x, y)] = c;
      }
    }
  }

  // --- hot-path net state: one cache line per net ------------------------
  // Everything a move evaluation needs about a touched net lives in a
  // single 64-byte NetRec, so each touched net costs exactly one random
  // cache-line fetch (prefetched up front), with no secondary gathers.
  //
  // The update kernel is hybrid. Most nets here are tiny (median fanout
  // 2), and for a 2-pin net the moved pin sits on a bounding edge almost
  // every move, so the VPR edge-count update would flag a shrink rescan
  // nearly always — paying the bookkeeping AND the rescan. Nets at or
  // below kInlinePins therefore skip edge counts entirely: their pin
  // clusters and positions are cached *inside* the record, and the box is
  // recomputed in-register with the staged move overlaid (a pin of the
  // moving cluster reads the staged coordinate, everything else the cached
  // one). Larger nets store box + per-edge pin counts instead and take the
  // O(1)-update/rare-rescan path, which is where edge counts actually win:
  // that is what turns the per-move cost from O(max fanout) into O(touched
  // nets).
  //
  // Because evaluation never reads tileOf_ (except in the rare large-net
  // shrink rescan, which overlays the staged move the same way), a
  // proposed move applies NO state writes until it is accepted: tileOf_,
  // occupant_ and the records are updated in commitMove only, and a
  // rejected move — the common case — has nothing to revert.

  /// Four bounding coordinates of one net, packed so a box is one 16-byte
  /// load on the delta path.
  struct BoxCoords {
    std::uint32_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  };

  /// How many of the net's pins sit on each bounding edge. A pin at a box
  /// corner counts on both edges; a one-tile-wide axis counts every pin on
  /// both its lo and hi edge. Signed so the transiently-stale state between
  /// a flagged shrink and its rescan can go negative without UB.
  struct EdgeCounts {
    std::int32_t onX0 = 0, onX1 = 0, onY0 = 0, onY1 = 0;
  };

  /// Fanout threshold at or below which a net caches its pins inline in
  /// its NetRec (the direct-recompute kernel); above it the record holds
  /// box + edge counts instead. Bounded by the 64-byte record; correctness
  /// does not depend on the value.
  static constexpr std::uint32_t kInlinePins = 5;

  struct alignas(64) NetRec {
    double hpwl = 0.0;    ///< running weight*HPWL (== weight * box span)
    double weight = 1.0;  ///< bit width times the VPR q factor
    /// Pin count for inline (small) nets; 0 selects the edge-count layout.
    std::uint32_t inlineCount = 0;
    union U {
      struct Small {
        std::uint32_t cluster[kInlinePins];
        std::uint16_t px[kInlinePins], py[kInlinePins];
      } small;
      struct Large {
        BoxCoords box;
        EdgeCounts edges;
        std::uint32_t pinStart, pinEnd;  ///< range in netPinCluster_
      } large;
      U() : large{} {}
    } u;
  };
  static_assert(sizeof(NetRec) == 64, "NetRec must stay one cache line");

  /// device_.index without the bounds check, for the move path: every
  /// coordinate there comes from tilesOfType or tileOf_, both in-range by
  /// construction.
  std::size_t rawIndex(std::uint32_t x, std::uint32_t y) const {
    return static_cast<std::size_t>(y) * device_.width() + x;
  }

  /// NetRec::hpwl is maintained as exactly weight * (current box span), so
  /// summing the cached values in ascending net order is bit-identical to
  /// a from-scratch recount.
  double fullCost() const {
    double c = 0.0;
    for (const NetRec& rec : netRec_) c += rec.hpwl;
    return c;
  }

  /// VPR-style q factor: HPWL underestimates the routed length of
  /// high-fanout nets, so weight them up to keep them compact.
  static double netWeight(const ClusterNet& net) {
    const double q =
        1.0 + 0.35 * std::sqrt(static_cast<double>(net.sinks.size()) - 1.0 +
                               1e-9);
    return net.width * q;
  }

  void buildIndex() {
    const std::size_t numClusters = packing_.clusters.size();
    const std::size_t numNets = packing_.nets.size();

    // Inline pin positions are stored as 16-bit coordinates.
    HCP_CHECK(device_.width() <= 0xffff && device_.height() <= 0xffff);
    netRec_.resize(numNets);
    siteOf_.resize(numClusters);
    for (std::size_t c = 0; c < numClusters; ++c)
      siteOf_[c] = static_cast<std::uint8_t>(packing_.clusters[c].site);

    // CSR cluster->net adjacency, deduplicated with per-net pin
    // multiplicities: a cluster appearing as driver plus k sink entries of
    // one net occupies a single (net, 1+k) slot, so a move updates that
    // net's edge counts once with the right pin count instead of walking
    // the net's pin list.
    constexpr std::size_t kNoNet = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> lastNet(numClusters, kNoNet);
    std::vector<std::uint32_t> degree(numClusters, 0);
    const auto forEachPin = [&](std::size_t n, auto&& f) {
      const ClusterNet& net = packing_.nets[n];
      f(net.driver);
      for (ClusterId s : net.sinks) f(s);
    };
    for (std::size_t n = 0; n < numNets; ++n)
      forEachPin(n, [&](ClusterId c) {
        if (lastNet[c] != n) {
          lastNet[c] = n;
          ++degree[c];
        }
      });
    adjStart_.assign(numClusters + 1, 0);
    for (std::size_t c = 0; c < numClusters; ++c)
      adjStart_[c + 1] = adjStart_[c] + degree[c];
    adjNet_.resize(adjStart_[numClusters]);
    adjPins_.resize(adjStart_[numClusters]);
    std::fill(lastNet.begin(), lastNet.end(), kNoNet);
    std::vector<std::uint32_t> fill(numClusters, 0);
    std::vector<std::uint32_t> lastSlot(numClusters, 0);
    for (std::size_t n = 0; n < numNets; ++n)
      forEachPin(n, [&](ClusterId c) {
        if (lastNet[c] != n) {
          lastNet[c] = n;
          const std::uint32_t slot = adjStart_[c] + fill[c]++;
          adjNet_[slot] = static_cast<std::uint32_t>(n);
          adjPins_[slot] = 1;
          lastSlot[c] = slot;
        } else {
          ++adjPins_[lastSlot[c]];
        }
      });

    // Flat net->pin CSR (duplicates kept: a driver that is also a sink
    // appears twice, which min/max and the edge tally both tolerate). The
    // hot-path recompute walks this instead of chasing each net's driver
    // field and sinks vector across the heap.
    netPinStart_.assign(numNets + 1, 0);
    for (std::size_t n = 0; n < numNets; ++n)
      netPinStart_[n + 1] =
          netPinStart_[n] +
          static_cast<std::uint32_t>(1 + packing_.nets[n].sinks.size());
    netPinCluster_.resize(netPinStart_[numNets]);
    {
      std::uint32_t slot = 0;
      for (std::size_t n = 0; n < numNets; ++n)
        forEachPin(n, [&](ClusterId c) { netPinCluster_[slot++] = c; });
    }


    for (std::size_t n = 0; n < numNets; ++n) {
      NetRec& rec = netRec_[n];
      rec.weight = netWeight(packing_.nets[n]);
      const std::uint32_t s = netPinStart_[n];
      const std::uint32_t e = netPinStart_[n + 1];
      BoxCoords b;
      if (e - s <= kInlinePins) {
        rec.inlineCount = e - s;
        auto& P = rec.u.small;
        for (std::uint32_t i = s; i < e; ++i) {
          const ClusterId c = netPinCluster_[i];
          const TileXY p = tileOf_[c];
          P.cluster[i - s] = c;
          P.px[i - s] = static_cast<std::uint16_t>(p.x);
          P.py[i - s] = static_cast<std::uint16_t>(p.y);
        }
        b = computeBoxFlat(s, e);
      } else {
        rec.inlineCount = 0;
        auto& L = rec.u.large;
        L.pinStart = s;
        L.pinEnd = e;
        rescanExact(s, e, L.box, L.edges);
        b = L.box;
      }
      rec.hpwl = rec.weight * ((b.x1 - b.x0) + (b.y1 - b.y0));
    }

    // Staging scratch, sized once for the widest possible touched set (two
    // clusters' rows) so the move loop writes by index instead of paying a
    // grow-check per push.
    std::uint32_t maxDeg = 0;
    for (std::size_t c = 0; c < numClusters; ++c)
      maxDeg = std::max(maxDeg, adjStart_[c + 1] - adjStart_[c]);
    touchedNet_.resize(2 * static_cast<std::size_t>(maxDeg));
    newBoxes_.resize(touchedNet_.size());
    newEdges_.resize(touchedNet_.size());
    newHpwl_.resize(touchedNet_.size());
  }

  /// Direct box recompute over the flat pin array and the *committed*
  /// positions in tileOf_ — initialization only.
  BoxCoords computeBoxFlat(std::uint32_t s, std::uint32_t e) const {
    const TileXY p0 = tileOf_[netPinCluster_[s]];
    BoxCoords b{p0.x, p0.x, p0.y, p0.y};
    for (std::uint32_t i = s + 1; i < e; ++i) {
      const TileXY p = tileOf_[netPinCluster_[i]];
      b.x0 = std::min(b.x0, p.x);
      b.x1 = std::max(b.x1, p.x);
      b.y0 = std::min(b.y0, p.y);
      b.y1 = std::max(b.y1, p.y);
    }
    return b;
  }

  /// Box of an inline (small) net with the currently staged move overlaid:
  /// pins of the moving clusters read the staged coordinates, everything
  /// else the positions cached in the record. Runs entirely out of the
  /// record's cache line and registers.
  BoxCoords inlineBoxStaged(const NetRec::U::Small& P,
                            std::uint32_t cnt) const {
    BoxCoords b{std::numeric_limits<std::uint32_t>::max(), 0,
                std::numeric_limits<std::uint32_t>::max(), 0};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      std::uint32_t x = P.px[i];
      std::uint32_t y = P.py[i];
      const std::uint32_t c = P.cluster[i];
      // moveB_ is kNone when the target tile is empty; no cluster id ever
      // equals kNone, so the compare is safe unconditionally.
      if (c == moveA_) {
        x = toA_.x;
        y = toA_.y;
      } else if (c == moveB_) {
        x = fromA_.x;
        y = fromA_.y;
      }
      b.x0 = std::min(b.x0, x);
      b.x1 = std::max(b.x1, x);
      b.y0 = std::min(b.y0, y);
      b.y1 = std::max(b.y1, y);
    }
    return b;
  }

  /// Position of cluster `c` with the staged move overlaid onto the
  /// committed tileOf_ state.
  TileXY stagedPosOf(ClusterId c) const {
    if (c == moveA_) return toA_;
    if (c == moveB_) return fromA_;
    return tileOf_[c];
  }

  /// Full O(fanout) rebuild of a net's box and edge counts from committed
  /// positions — initialization of edge-counted (large) nets.
  void rescanExact(std::uint32_t s, std::uint32_t e, BoxCoords& bOut,
                   EdgeCounts& eOut) const {
    const BoxCoords b = computeBoxFlat(s, e);
    EdgeCounts ec;
    for (std::uint32_t i = s; i < e; ++i) {
      const TileXY p = tileOf_[netPinCluster_[i]];
      ec.onX0 += p.x == b.x0;
      ec.onX1 += p.x == b.x1;
      ec.onY0 += p.y == b.y0;
      ec.onY1 += p.y == b.y1;
    }
    bOut = b;
    eOut = ec;
  }

  /// Same rebuild under the staged move — the large-net shrink rescan.
  /// Rare (the placer_box_rescans counter tracks how rare), so the per-pin
  /// overlay compares cost nothing in the aggregate.
  void rescanStaged(std::uint32_t s, std::uint32_t e, BoxCoords& bOut,
                    EdgeCounts& eOut) const {
    const TileXY p0 = stagedPosOf(netPinCluster_[s]);
    BoxCoords b{p0.x, p0.x, p0.y, p0.y};
    for (std::uint32_t i = s + 1; i < e; ++i) {
      const TileXY p = stagedPosOf(netPinCluster_[i]);
      b.x0 = std::min(b.x0, p.x);
      b.x1 = std::max(b.x1, p.x);
      b.y0 = std::min(b.y0, p.y);
      b.y1 = std::max(b.y1, p.y);
    }
    EdgeCounts ec;
    for (std::uint32_t i = s; i < e; ++i) {
      const TileXY p = stagedPosOf(netPinCluster_[i]);
      ec.onX0 += p.x == b.x0;
      ec.onX1 += p.x == b.x1;
      ec.onY0 += p.y == b.y0;
      ec.onY1 += p.y == b.y1;
    }
    bOut = b;
    eOut = ec;
  }

  /// O(1) single-axis pin move (VPR update_bb): `k` pins of the net leave
  /// `oldc` for `newc`. Returns true when an edge lost its last pin and the
  /// box may shrink — the caller must rescan. Counts can be transiently
  /// wrong once a rescan is flagged; the rescan rebuilds them exactly.
  static bool moveAxis(std::uint32_t& lo, std::uint32_t& hi,
                       std::int32_t& nlo, std::int32_t& nhi,
                       std::uint32_t oldc, std::uint32_t newc,
                       std::int32_t k) {
    if (oldc == newc) return false;
    if (oldc == hi) nhi -= k;
    if (oldc == lo) nlo -= k;
    if (newc > hi) {
      hi = newc;
      nhi = k;
    } else if (newc == hi) {
      nhi += k;
    }
    if (newc < lo) {
      lo = newc;
      nlo = k;
    } else if (newc == lo) {
      nlo += k;
    }
    return nhi <= 0 || nlo <= 0;
  }

  /// Moves `k` pins of a net from `from` to `to` in O(1) on the given
  /// box/edge state; returns whether the box needs a shrink rescan.
  static bool movePins(BoxCoords& b, EdgeCounts& e, TileXY from, TileXY to,
                       std::int32_t k) {
    bool rescan = moveAxis(b.x0, b.x1, e.onX0, e.onX1, from.x, to.x, k);
    rescan |= moveAxis(b.y0, b.y1, e.onY0, e.onY1, from.y, to.y, k);
    return rescan;
  }

  double initialTemperature(double cost) {
    // Sample random moves; T0 = 20 * stddev of deltas (accept-most regime).
    // tryMove writes no state, so each sample needs no undo.
    std::vector<double> deltas;
    const std::int64_t span = moveSpan(1.0);
    for (int i = 0; i < 128; ++i) {
      const double d = tryMove(span);
      if (d != kRejected) deltas.push_back(d);
    }
    if (deltas.empty()) return std::max(1.0, cost * 0.05);
    double m = 0.0;
    for (double d : deltas) m += d;
    m /= static_cast<double>(deltas.size());
    double v = 0.0;
    for (double d : deltas) v += (d - m) * (d - m);
    v = std::sqrt(v / static_cast<double>(deltas.size()));
    return std::max(1.0, 20.0 * v);
  }

  /// The per-move span of the target window, a pure function of `range`.
  std::int64_t moveSpan(double range) const {
    return static_cast<std::int64_t>(std::max(
        2.0, range * std::max(device_.width(), device_.height())));
  }

  /// One temperature step's worth of moves. Returns the number of accepted
  /// moves.
  std::uint64_t sweep(double t, double range, std::uint64_t movesPerT,
                      Placement& result, double& cost) {
    // `range` is fixed for the whole sweep, so the window span is computed
    // once, not per move.
    const std::int64_t span = moveSpan(range);
    std::uint64_t accepted = 0;
    for (std::uint64_t m = 0; m < movesPerT; ++m) {
      ++result.movesTried;
      const double delta = tryMove(span);
      if (delta == kRejected) continue;
      bool accept = delta <= 0.0;
      if (!accept) {
        const double u = rng_.uniformReal();
        if (delta > kExpUnderflow * t) {
          // exp(-x) for x > 37 is below 2^-53, the smallest nonzero
          // value uniformReal can return, so u < exp(-delta/t) reduces
          // exactly to u == 0 — the libm call is skipped for hopeless
          // uphill moves without changing any decision or RNG draw.
          accept = u == 0.0;
        } else {
          accept = u < std::exp(-delta / t);
        }
      }
      if (accept) {
        commitMove();
        cost += delta;
#ifndef NDEBUG
        densityRunning_ += lastDensityDelta_;
#endif
        ++accepted;
        ++result.movesAccepted;
        support::telemetry::observe(
            support::telemetry::Histogram::PlacerAcceptedMoveDelta, delta);
      }
    }
    return accepted;
  }

  /// Proposes a move to a tile at most `span` away; returns the cost delta
  /// or kRejected. The move is staged in moveA_/moveB_/fromA_/toA_ and the
  /// scratch arrays, and takes effect only through commitMove.
  double tryMove(std::int64_t span) {
    const auto n = packing_.clusters.size();
    const ClusterId a = static_cast<ClusterId>(rng_.uniformInt(n));
    const auto& tiles =
        device_.tilesOfType(static_cast<TileType>(siteOf_[a]));
    if (tiles.size() < 2) return kRejected;

    // Pick a target tile within the range window around a's position.
    const TileXY pa = tileOf_[a];
    const auto& [tx, ty] = tiles[rng_.uniformInt(tiles.size())];
    if (std::llabs(static_cast<std::int64_t>(tx) - pa.x) > span ||
        std::llabs(static_cast<std::int64_t>(ty) - pa.y) > span)
      return kRejected;
    if (tx == pa.x && ty == pa.y) return kRejected;

    const ClusterId b = occupant_[rawIndex(tx, ty)];

    // Stage.
    moveA_ = a;
    moveB_ = b;
    fromA_ = pa;
    toA_ = {tx, ty};

    // Evaluate the move. Nothing is written: positions stay committed, the
    // staged move is overlaid per pin, and the new boxes land in scratch
    // (newBoxes_/newEdges_), so a rejected move, the common case, has
    // nothing to undo, and only an accept pays the publication at commit.
    // Small-net boxes are recomputed in-register from the pins cached
    // inline in their NetRec; large-net boxes update in O(1) from the
    // per-edge pin counts, and only a large box whose bounding edge lost
    // its last pin pays a rescan. Either way the new box is exactly what a
    // from-scratch recompute gives, and `after` sums in ascending net
    // order, so the delta is a pure function of the committed state and
    // the staged move.
    double before = 0.0;
    double after = 0.0;
    // One fused pass: linearly merge the two sorted CSR adjacency rows —
    // the union of both clusters' nets in ascending order — and evaluate
    // each touched net as it is discovered, so its NetRec line is visited
    // exactly once per move. The prefetch pre-pass gets the
    // randomly-scattered record lines in flight together instead of
    // paying each miss serially inside the merge.
    constexpr std::uint32_t kEndNet =
        std::numeric_limits<std::uint32_t>::max();
    std::uint32_t ia = adjStart_[a];
    const std::uint32_t ea = adjStart_[a + 1];
    std::uint32_t ib = 0, eb = 0;
    if (b != kNone) {
      ib = adjStart_[b];
      eb = adjStart_[b + 1];
    }
    for (std::uint32_t i = ia; i < ea; ++i)
      __builtin_prefetch(&netRec_[adjNet_[i]]);
    for (std::uint32_t i = ib; i < eb; ++i)
      __builtin_prefetch(&netRec_[adjNet_[i]]);
    std::size_t count = 0;
    const auto evalNet = [&](std::uint32_t net, std::uint32_t pinsA,
                             std::uint32_t pinsB) {
      const NetRec& rec = netRec_[net];
      before += rec.hpwl;
      BoxCoords nb;
      if (const std::uint32_t cnt = rec.inlineCount; cnt != 0) {
        // Small net: box recomputed in-register from the inline pins —
        // the record's own line is the only memory touched.
        nb = inlineBoxStaged(rec.u.small, cnt);
      } else {
        nb = rec.u.large.box;
        EdgeCounts ne = rec.u.large.edges;
        bool rescan = false;
        if (pinsA > 0)
          rescan = movePins(nb, ne, fromA_, toA_,
                            static_cast<std::int32_t>(pinsA));
        // Once a rescan is pending the counts are stale; skip straight
        // to the rebuild, which overlays the staged move itself.
        if (pinsB > 0 && !rescan)
          rescan = movePins(nb, ne, toA_, fromA_,
                            static_cast<std::int32_t>(pinsB));
        if (rescan) {
          rescanStaged(rec.u.large.pinStart, rec.u.large.pinEnd, nb, ne);
          ++boxRescans_;
        }
        newEdges_[count] = ne;
        newBoxes_[count] = nb;
      }
      touchedNet_[count] = net;
      const double h = rec.weight * ((nb.x1 - nb.x0) + (nb.y1 - nb.y0));
      newHpwl_[count] = h;
      after += h;
      ++count;
    };
    if (b == kNone) {
      // Empty tile: a's row alone, in the same ascending order the merge
      // would produce — no merge compares to pay.
      for (std::uint32_t i = ia; i < ea; ++i)
        evalNet(adjNet_[i], adjPins_[i], 0);
    } else {
      while (ia < ea || ib < eb) {
        const std::uint32_t na = ia < ea ? adjNet_[ia] : kEndNet;
        const std::uint32_t nbId = ib < eb ? adjNet_[ib] : kEndNet;
        if (na < nbId) {
          evalNet(na, adjPins_[ia++], 0);
        } else if (nbId < na) {
          evalNet(nbId, 0, adjPins_[ib++]);
        } else {
          const std::uint32_t pa2 = adjPins_[ia++];
          evalNet(na, pa2, adjPins_[ib++]);
        }
      }
    }
    touchedCount_ = count;

    // Density term: cluster a moves fromA->toA; b (if any) the reverse.
    const std::size_t ra = regionOfFast(fromA_);
    const std::size_t rb = regionOfFast(toA_);
    double density = densityDelta(ra, rb, clusterPins_[moveA_]);
    if (moveB_ != kNone) density += densityDelta(rb, ra, clusterPins_[moveB_]);
#ifndef NDEBUG
    lastDensityDelta_ = density;
#endif
    return after - before + density;
  }

  // The only place a move publishes state. Density bookkeeping mutates
  // regionPins_ only here too: tryMove computes its density delta purely
  // from the *current* regionPins_, so a rejected move has nothing to undo.
  void commitMove() {
    occupant_[rawIndex(fromA_.x, fromA_.y)] = moveB_;
    occupant_[rawIndex(toA_.x, toA_.y)] = moveA_;
    tileOf_[moveA_] = toA_;
    if (moveB_ != kNone) tileOf_[moveB_] = fromA_;
    for (std::size_t i = 0; i < touchedCount_; ++i) {
      const std::uint32_t net = touchedNet_[i];
      NetRec& rec = netRec_[net];
      rec.hpwl = newHpwl_[i];
      if (const std::uint32_t cnt = rec.inlineCount; cnt != 0) {
        // Re-point the moved clusters' inline pin copies (same overlay
        // rule the evaluation applied).
        auto& P = rec.u.small;
        for (std::uint32_t j = 0; j < cnt; ++j) {
          if (P.cluster[j] == moveA_) {
            P.px[j] = static_cast<std::uint16_t>(toA_.x);
            P.py[j] = static_cast<std::uint16_t>(toA_.y);
          } else if (P.cluster[j] == moveB_) {
            P.px[j] = static_cast<std::uint16_t>(fromA_.x);
            P.py[j] = static_cast<std::uint16_t>(fromA_.y);
          }
        }
      } else {
        rec.u.large.box = newBoxes_[i];
        rec.u.large.edges = newEdges_[i];
      }
    }
    const std::size_t ra = regionOfFast(fromA_);
    const std::size_t rb = regionOfFast(toA_);
    if (ra != rb) {
      regionPins_[ra] -= clusterPins_[moveA_];
      regionPins_[rb] += clusterPins_[moveA_];
      if (moveB_ != kNone) {
        regionPins_[rb] -= clusterPins_[moveB_];
        regionPins_[ra] += clusterPins_[moveB_];
      }
      regionPenaltyCache_[ra] = regionPenalty(ra);
      regionPenaltyCache_[rb] = regionPenalty(rb);
    }
  }

  static constexpr ClusterId kNone =
      std::numeric_limits<ClusterId>::max();

  const Packing& packing_;
  const Device& device_;
  const PlacerConfig& config_;
  hcp::Rng rng_;

  std::vector<TileXY> tileOf_;
  std::vector<ClusterId> occupant_;
  // Cluster site types as a flat byte array: the move generator reads one
  // L1-resident byte instead of chasing into the (much larger) cluster
  // records.
  std::vector<std::uint8_t> siteOf_;

  // Net state: one 64-byte record per net (see the comment block above
  // BoxCoords).
  std::vector<NetRec> netRec_;

  // CSR cluster->net adjacency: cluster c's nets are
  // adjNet_[adjStart_[c] .. adjStart_[c+1]), ascending, with c's pin count
  // in that net in the parallel adjPins_ slot.
  std::vector<std::uint32_t> adjStart_, adjNet_, adjPins_;

  // Flat net->pin CSR (with duplicates), consumed at build time and by the
  // rare large-net shrink rescans.
  std::vector<std::uint32_t> netPinStart_;
  std::vector<ClusterId> netPinCluster_;

  std::vector<double> regionPins_, regionSupply_, clusterPins_;
  // regionOfFast tables (x/rs and (y/rs)*regionsPerRow) and the cached
  // per-region penalty values, refreshed for the two affected regions on
  // commit. Each cached value is bitwise what regionPenalty() would return,
  // so reading it in densityDelta preserves bit-identity.
  std::vector<std::uint32_t> xRegionCol_, yRegionRow_;
  std::vector<double> regionPenaltyCache_;

#ifndef NDEBUG
  // Debug-only drift-check bookkeeping: the density component of each
  // accepted delta, accumulated alongside the running cost so the check in
  // run() can subtract it and compare the HPWL part against an exact
  // recount. Needed because the (golden-pinned) swap delta sums two
  // independent single-cluster density deltas — for the quadratic penalty
  // that is NOT an exact difference of the total penalty, so the running
  // density legitimately diverges from a recount.
  double densityRunning_ = 0.0;
  double lastDensityDelta_ = 0.0;
#endif

  // Staged move state.
  ClusterId moveA_ = kNone, moveB_ = kNone;
  TileXY fromA_, toA_;
  std::vector<std::uint32_t> touchedNet_;  // pre-sized
  std::size_t touchedCount_ = 0;           // live prefix of touchedNet_
  std::vector<BoxCoords> newBoxes_;        // staged boxes, touched order
  std::vector<EdgeCounts> newEdges_;       // staged counts, large nets only
  std::vector<double> newHpwl_;            // staged per-net HPWL values

  std::uint64_t boxRescans_ = 0;
};

}  // namespace

Placement place(const Packing& packing, const Device& device,
                const PlacerConfig& config) {
  HCP_SPAN("place");
  Annealer annealer(packing, device, config);
  Placement result = annealer.run();
  namespace tm = support::telemetry;
  tm::count(tm::Counter::PlacerMovesProposed, result.movesTried);
  tm::count(tm::Counter::PlacerMovesAccepted, result.movesAccepted);
  tm::count(tm::Counter::PlacerMovesRejected,
            result.movesTried - result.movesAccepted);
  tm::count(tm::Counter::PlacerBoxRescans, annealer.boxRescans());
  return result;
}

double totalWirelength(const Packing& packing, const Placement& placement) {
  double total = 0.0;
  for (const ClusterNet& net : packing.nets) {
    const TileXY d = placement.tileOfCluster[net.driver];
    std::uint32_t x0 = d.x, x1 = d.x, y0 = d.y, y1 = d.y;
    for (ClusterId s : net.sinks) {
      const TileXY p = placement.tileOfCluster[s];
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
    total += static_cast<double>(net.width) * ((x1 - x0) + (y1 - y0));
  }
  return total;
}

}  // namespace hcp::fpga
