#include "fpga/router.hpp"

#include <algorithm>
#include <cmath>

#include "support/telemetry.hpp"

namespace hcp::fpga {

namespace {

/// An inclusive tile rectangle: a net's search window, or the bounding box
/// of its partial tree.
struct Window {
  std::uint32_t x0, y0, x1, y1;
  bool contains(std::uint32_t x, std::uint32_t y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
  /// Manhattan distance from (x, y) to the nearest tile of the rectangle.
  std::uint32_t distance(std::uint32_t x, std::uint32_t y) const {
    return (x < x0 ? x0 - x : x > x1 ? x - x1 : 0) +
           (y < y0 ? y0 - y : y > y1 ? y - y1 : 0);
  }
  void extend(std::uint32_t x, std::uint32_t y) {
    x0 = std::min(x0, x);
    x1 = std::max(x1, x);
    y0 = std::min(y0, y);
    y1 = std::max(y1, y);
  }
  std::uint32_t w() const { return x1 - x0 + 1; }
  std::uint32_t h() const { return y1 - y0 + 1; }
  std::size_t idx(std::uint32_t x, std::uint32_t y) const {
    return static_cast<std::size_t>(y - y0) * w() + (x - x0);
  }
};

class Router {
 public:
  Router(const Packing& packing, const Placement& placement,
         const Device& device, const RouterConfig& config)
      : packing_(packing), placement_(placement), device_(device),
        config_(config),
        map_(CongestionMap::forDevice(device)),
        vHistory_(device.numTiles(), 0.0),
        hHistory_(device.numTiles(), 0.0),
        tileDirty_(device.numTiles(), 0) {}

  RoutingResult run() {
    routes_.resize(packing_.nets.size());
    double presentFactor = 0.6;

    int iter = 0;
    for (; iter < config_.maxIterations; ++iter) {
      // Decide which nets to (re)route this round.
      work_.clear();
      for (std::size_t n = 0; n < packing_.nets.size(); ++n) {
        if (iter == 0 || routeOverflows(n)) work_.push_back(n);
      }
      if (work_.empty()) break;

      for (std::size_t n : work_) {
        if (!routes_[n].empty()) ++ripUps_;
        ripUp(n);
        routeNet(n, presentFactor);
      }

      // Accumulate history on overflowed segments. Each tile's update is
      // independent, so the dirty-tile sweep produces bit-identical history
      // values and overflow counts to a full-grid scan.
      bool anyOverflow = false;
      std::uint64_t overflowTilesThisIter = 0;
      const auto scanTile = [&](std::uint32_t x, std::uint32_t y) {
        const std::size_t i = device_.index(x, y);
        const double vOver = map_.vDemand(x, y) - map_.vCapAt(x, y);
        const double hOver = map_.hDemand(x, y) - map_.hCapAt(x, y);
        if (vOver > 0) {
          vHistory_[i] += config_.historyGain * vOver / map_.vCapAt(x, y);
          anyOverflow = true;
        }
        if (hOver > 0) {
          hHistory_[i] += config_.historyGain * hOver / map_.hCapAt(x, y);
          anyOverflow = true;
        }
        if (vOver > 0 || hOver > 0) ++overflowTilesThisIter;
      };
      // The dirty set is derived here, after routing, from the work set's
      // final routes — not maintained step-by-step inside the A*/rip-up hot
      // loops, which would tax every demand charge. It is exact: a tile can
      // only end the iteration overflowed if it was already overflowed at
      // the last sweep (then every net through it is in this work set, and
      // any net still crossing it puts it on a scanned route; if all left,
      // its demand is gone) or if a work-set net was just routed through it
      // (then it is on that route). Either way the tile lies on a work-set
      // net's current route. When the work set covers most nets (always
      // iteration 0), walking their routes costs more than the grid scan it
      // replaces, so fall back to the full sweep — same result, the
      // scanned superset only adds zero-overflow no-ops.
      std::size_t steps = 0;
      for (std::size_t n : work_) steps += routes_[n].size();
      if (steps >= device_.numTiles()) {
        dirtyScanned_ += device_.numTiles();
        for (std::uint32_t y = 0; y < device_.height(); ++y)
          for (std::uint32_t x = 0; x < device_.width(); ++x)
            scanTile(x, y);
      } else {
        for (const std::uint32_t t : dirtyTiles_) tileDirty_[t] = 0;
        dirtyTiles_.clear();
        for (std::size_t n : work_)
          for (const RouteStep& s : routes_[n]) markDirty(s.x, s.y);
        dirtyScanned_ += dirtyTiles_.size();
        for (const std::uint32_t t : dirtyTiles_)
          scanTile(t % device_.width(), t / device_.width());
      }
      support::telemetry::observe(
          support::telemetry::Histogram::RouterOverflowTilesPerIter,
          static_cast<double>(overflowTilesThisIter));
      presentFactor *= config_.presentFactorGrowth;
      if (!anyOverflow) {
        ++iter;
        break;
      }
    }

    RoutingResult result{std::move(map_), std::move(routes_), 0.0, 0, iter};
    for (std::size_t n = 0; n < packing_.nets.size(); ++n)
      result.totalWirelength +=
          static_cast<double>(packing_.nets[n].width) *
          static_cast<double>(result.routes[n].size());
    result.overflowTiles = result.map.tilesOver(100.0);
    namespace tm = support::telemetry;
    tm::count(tm::Counter::RouterIterations, static_cast<std::uint64_t>(iter));
    tm::count(tm::Counter::RouterRipUps, ripUps_);
    tm::count(tm::Counter::RouterOverflowTiles, result.overflowTiles);
    tm::count(tm::Counter::RouterDirtyTiles, dirtyScanned_);
    tm::count(tm::Counter::RouterTilesSettled, tilesSettled_);
    return result;
  }

 private:
  void markDirty(std::uint32_t x, std::uint32_t y) {
    const auto i = static_cast<std::uint32_t>(device_.index(x, y));
    if (!tileDirty_[i]) {
      tileDirty_[i] = 1;
      dirtyTiles_.push_back(i);
    }
  }

  bool routeOverflows(std::size_t n) const {
    for (const RouteStep& s : routes_[n]) {
      if (s.vertical) {
        if (map_.vDemand(s.x, s.y) > map_.vCapAt(s.x, s.y)) return true;
      } else {
        if (map_.hDemand(s.x, s.y) > map_.hCapAt(s.x, s.y)) return true;
      }
    }
    return false;
  }

  void ripUp(std::size_t n) {
    const double w = packing_.nets[n].width;
    for (const RouteStep& s : routes_[n]) {
      if (s.vertical) map_.removeVertical(s.x, s.y, w);
      else map_.removeHorizontal(s.x, s.y, w);
    }
    routes_[n].clear();
  }

  /// Cost of taking one step through (x,y) in the given orientation.
  double stepCost(std::uint32_t x, std::uint32_t y, bool vertical,
                  double width, double presentFactor) const {
    const std::size_t i = device_.index(x, y);
    const double cap = vertical ? map_.vCapAt(x, y) : map_.hCapAt(x, y);
    const double demand =
        (vertical ? map_.vDemand(x, y) : map_.hDemand(x, y)) + width;
    const double hist = vertical ? vHistory_[i] : hHistory_[i];
    double cost = 1.0 + hist;
    if (demand > cap) cost += presentFactor * (demand - cap) / cap;
    return cost;
  }

  void routeNet(std::size_t n, double presentFactor) {
    const ClusterNet& net = packing_.nets[n];
    const TileXY src = placement_.tileOfCluster[net.driver];

    // Sinks ordered by distance from the driver.
    sinks_.clear();
    for (ClusterId s : net.sinks) sinks_.push_back(placement_.tileOfCluster[s]);
    std::sort(sinks_.begin(), sinks_.end(), [&](TileXY a, TileXY b) {
      const auto da = Device::manhattan(src.x, src.y, a.x, a.y);
      const auto db = Device::manhattan(src.x, src.y, b.x, b.y);
      return da < db || (da == db && (a.x != b.x ? a.x < b.x : a.y < b.y));
    });

    // Window: bbox of all terminals plus margin.
    Window box{src.x, src.y, src.x, src.y};
    for (const TileXY& s : sinks_) box.extend(s.x, s.y);
    const auto m = static_cast<std::uint32_t>(config_.bboxMargin);
    Window win{
        box.x0 > m ? box.x0 - m : 0, box.y0 > m ? box.y0 - m : 0,
        std::min(device_.width() - 1, box.x1 + m),
        std::min(device_.height() - 1, box.y1 + m)};

    // Search state is reused across sinks and nets: the arrays only ever
    // grow to the largest window seen, per-sink invalidation is one epoch
    // bump (dist entries from older epochs read as +inf), and the open
    // list keeps its heap storage. This removes the per-sink O(window)
    // allocate+fill churn the original router paid.
    const std::size_t tiles = static_cast<std::size_t>(win.w()) * win.h();
    if (dist_.size() < tiles) {
      dist_.resize(tiles);
      stamp_.resize(tiles, 0);
    }

    // Tree membership per window tile (per-net, so a plain refill), and the
    // tree's bounding box, which the search's heuristic aims at.
    inTree_.assign(tiles, false);
    inTree_[win.idx(src.x, src.y)] = true;
    tree_ = Window{src.x, src.y, src.x, src.y};

    for (const TileXY& sink : sinks_) {
      if (inTree_[win.idx(sink.x, sink.y)]) continue;
      connectSink(n, sink, win, presentFactor);
    }
  }

  /// Connects `sink` to the partial tree by a least-cost path and charges
  /// the path's demand. The search is A* with h = Manhattan distance to the
  /// tree's bounding box, and it returns exactly the path a Dijkstra search
  /// from the sink would (DESIGN.md §15):
  ///   - h is integral and changes by at most 1 per step, while every step
  ///     costs at least 1, so h is consistent, and every tile with
  ///     dist + h <= the best tree-hit cost is settled with its Dijkstra
  ///     dist once the queue's least f exceeds that cost. A double sum can
  ///     grow by a little less than 1 per step, since each addition rounds,
  ///     so the stop bound carries a relative slack of 2^-20, far above
  ///     that loss over any path a window holds;
  ///   - the goal is the tree tile least in (dist, window index), the one
  ///     Dijkstra pops first; tree tiles are never expanded;
  ///   - each path tile's predecessor is its neighbour least in
  ///     (dist, index) among those whose dist plus step cost is its dist
  ///     exactly, the one whose relaxation Dijkstra kept (such a neighbour
  ///     is a settled non-tree tile);
  ///   - step costs read the demand, so it is charged only once the whole
  ///     path is known.
  void connectSink(std::size_t n, TileXY sink, const Window& win,
                   double presentFactor) {
    const double width = packing_.nets[n].width;
    ++epoch_;
    const auto distAt = [&](std::size_t i) {
      return stamp_[i] == epoch_ ? dist_[i]
                                 : std::numeric_limits<double>::infinity();
    };
    const auto h = [&](std::uint32_t x, std::uint32_t y) {
      return static_cast<double>(tree_.distance(x, y));
    };

    // Min-heap of (f = dist + h, window index) via push_heap/pop_heap on a
    // reused vector, whose storage survives clear().
    using QE = std::pair<double, std::uint32_t>;
    heap_.clear();
    const auto push = [&](double f, std::uint32_t i) {
      heap_.emplace_back(f, i);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<QE>{});
    };
    const std::size_t start = win.idx(sink.x, sink.y);
    dist_[start] = 0.0;
    stamp_[start] = epoch_;
    push(h(sink.x, sink.y), static_cast<std::uint32_t>(start));

    double best = std::numeric_limits<double>::infinity();
    std::size_t goal = std::numeric_limits<std::size_t>::max();
    while (!heap_.empty() && heap_.front().first <= best * kStopSlack) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<QE>{});
      const auto [f, ui] = heap_.back();
      heap_.pop_back();
      const std::uint32_t ux = win.x0 + ui % win.w();
      const std::uint32_t uy = win.y0 + ui / win.w();
      const double d = dist_[ui];
      if (f > d + h(ux, uy)) continue;  // stale: dist fell since the push
      ++tilesSettled_;
      // A step from u consumes u's channel in the step's orientation.
      const double costH = stepCost(ux, uy, false, width, presentFactor);
      const double costV = stepCost(ux, uy, true, width, presentFactor);
      for (const Dir& dir : kDirs) {
        const std::int64_t nx = static_cast<std::int64_t>(ux) + dir.dx;
        const std::int64_t ny = static_cast<std::int64_t>(uy) + dir.dy;
        if (nx < win.x0 || ny < win.y0 || nx > win.x1 || ny > win.y1)
          continue;
        const auto vx = static_cast<std::uint32_t>(nx);
        const auto vy = static_cast<std::uint32_t>(ny);
        const std::size_t vi = win.idx(vx, vy);
        const double c = d + (dir.vertical ? costV : costH);
        if (c >= distAt(vi)) continue;
        dist_[vi] = c;
        stamp_[vi] = epoch_;
        if (!inTree_[vi]) {
          push(c + h(vx, vy), static_cast<std::uint32_t>(vi));
        } else if (c < best || (c == best && vi < goal)) {
          best = c;
          goal = vi;
        }
      }
    }
    HCP_CHECK_MSG(goal != std::numeric_limits<std::size_t>::max(),
                  "router: sink unreachable (window too small?)");

    // Walk back from the tree hit to the sink, recording each step; the
    // step p -> cur consumes the channel at p. A tree tile never qualifies
    // as p: p's dist is below cur's, hence below the goal's, and the goal's
    // is the least of any tree tile reached.
    const std::size_t first = routes_[n].size();
    std::size_t cur = goal;
    while (cur != start) {
      const std::uint32_t cx = win.x0 + cur % win.w();
      const std::uint32_t cy = win.y0 + cur / win.w();
      std::size_t pred = std::numeric_limits<std::size_t>::max();
      double predDist = std::numeric_limits<double>::infinity();
      RouteStep step;
      for (const Dir& dir : kDirs) {
        const std::int64_t px = static_cast<std::int64_t>(cx) - dir.dx;
        const std::int64_t py = static_cast<std::int64_t>(cy) - dir.dy;
        if (px < win.x0 || py < win.y0 || px > win.x1 || py > win.y1)
          continue;
        const RouteStep s{static_cast<std::uint32_t>(px),
                          static_cast<std::uint32_t>(py), dir.vertical};
        const std::size_t pi = win.idx(s.x, s.y);
        const double pd = distAt(pi);
        if (pd > predDist || (pd == predDist && pi > pred) ||
            pd + stepCost(s.x, s.y, s.vertical, width, presentFactor) !=
                dist_[cur])
          continue;
        pred = pi;
        predDist = pd;
        step = s;
      }
      HCP_CHECK_MSG(pred != std::numeric_limits<std::size_t>::max(),
                    "router: broken backtrace");
      routes_[n].push_back(step);
      cur = pred;
    }
    for (std::size_t k = first; k < routes_[n].size(); ++k) {
      const RouteStep& s = routes_[n][k];
      inTree_[win.idx(s.x, s.y)] = true;
      tree_.extend(s.x, s.y);
      if (s.vertical) map_.addVertical(s.x, s.y, width);
      else map_.addHorizontal(s.x, s.y, width);
    }
  }

  struct Dir {
    std::int32_t dx, dy;
    bool vertical;
  };
  static constexpr Dir kDirs[4] = {
      {-1, 0, false}, {1, 0, false}, {0, -1, true}, {0, 1, true}};
  /// The exactness argument walks at most 2N + 1 steps in a window of N
  /// tiles, and each addition may lose up to 2^-53 of the running sum, so
  /// the loss stays below 2^-20 of the best cost while N < 2^31
  /// (DESIGN.md §15).
  static constexpr double kStopSlack = 1.0 + 0x1p-20;

  const Packing& packing_;
  const Placement& placement_;
  const Device& device_;
  const RouterConfig& config_;
  CongestionMap map_;
  std::vector<double> vHistory_, hHistory_;
  std::vector<std::vector<RouteStep>> routes_;
  std::uint64_t ripUps_ = 0;
  std::uint64_t tilesSettled_ = 0;

  // Reused per-iteration / per-net / per-sink scratch (see routeNet).
  std::vector<std::size_t> work_;
  std::vector<TileXY> sinks_;
  std::vector<bool> inTree_;
  Window tree_{};  // bounding box of the net's partial tree
  std::vector<double> dist_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<std::pair<double, std::uint32_t>> heap_;

  // Dirty-tile set: tiles on the work set's final routes, i.e. the only
  // tiles the overflow/history sweep needs to visit (derived at sweep
  // time — see run()).
  std::vector<std::uint32_t> dirtyTiles_;
  std::vector<std::uint8_t> tileDirty_;
  std::uint64_t dirtyScanned_ = 0;
};

}  // namespace

RoutingResult route(const Packing& packing, const Placement& placement,
                    const Device& device, const RouterConfig& config) {
  HCP_SPAN("route");
  Router router(packing, placement, device, config);
  return router.run();
}

CongestionMap estimateRudy(const Packing& packing,
                           const Placement& placement,
                           const Device& device) {
  CongestionMap map = CongestionMap::forDevice(device);
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
    const double w = (x1 - x0) + 1.0;
    const double h = (y1 - y0) + 1.0;
    // RUDY: wirelength smeared uniformly over the bbox; horizontal demand
    // proportional to the net's x-span, vertical to its y-span.
    const double hDemandPerTile =
        static_cast<double>(net.width) * (w - 1.0) / (w * h);
    const double vDemandPerTile =
        static_cast<double>(net.width) * (h - 1.0) / (w * h);
    for (std::uint32_t y = y0; y <= y1; ++y) {
      for (std::uint32_t x = x0; x <= x1; ++x) {
        if (hDemandPerTile > 0) map.addHorizontal(x, y, hDemandPerTile);
        if (vDemandPerTile > 0) map.addVertical(x, y, vDemandPerTile);
      }
    }
  }
  return map;
}

}  // namespace hcp::fpga
