// PathFinder-style negotiated global router.
//
// Nets are routed on the tile grid: each horizontal/vertical step through a
// tile consumes that tile's H/V channel capacity, weighted by the net's bit
// width. Multi-terminal nets grow a Steiner-ish tree: each sink connects to
// the nearest point of the partial tree by an A* search whose heuristic is
// the Manhattan distance to the tree's bounding box, with stop, goal and
// backtrace rules that return exactly the path (ties included) a Dijkstra
// search would (DESIGN.md §15). Congestion is negotiated
// over several iterations: overflowing nets are ripped up and rerouted with
// rising present-congestion penalties and accumulated history costs, so
// demand spreads around hotspots exactly as a real router detours — which is
// what makes over-100% regions slow (captured later by the STA penalty).
//
// Alongside the negotiated router there is a RUDY-style probabilistic
// estimator (net demand smeared over its bounding box, split V/H by aspect
// ratio). It is the congestion map `predict-map` and serve's `predict_map`
// return for a placement that was never routed (core/map_predictor).
//
// Hot-path structure: the per-sink A* state (dist/open list) is
// epoch-stamped and reused across sinks and nets instead of being
// reallocated per sink. The open list is a 4-ary min-heap of single 128-bit
// keys, f's IEEE-754 bits above the window index: their unsigned order is
// the (f, index) order, so the heap pops exactly what a heap of (f, index)
// pairs would, without branching on f ties. The per-iteration
// overflow/history sweep visits only the dirty tiles touched by that
// iteration's rip-up/reroute work (every tile that can be overflowed is
// dirty by construction), falling back to the whole grid when the work set
// is large. These and the A* search are bit-identical to the
// straightforward forms (DESIGN.md §15): golden routing digests, written
// while a full-grid reference sweep and a Dijkstra sink search still ran,
// pin the output, and golden settled-tile counts pin the search's work.
#pragma once

#include <cstdint>

#include "fpga/congestion.hpp"
#include "fpga/packer.hpp"
#include "fpga/placer.hpp"

namespace hcp::fpga {

struct RouterConfig {
  int maxIterations = 6;
  double historyGain = 0.35;  ///< history cost added per overflowed unit
  double presentFactorGrowth = 1.7;
  int bboxMargin = 7;         ///< A* window beyond the net bounding box
};

/// Per-net routed tree, as a list of directed unit steps.
struct RouteStep {
  std::uint32_t x = 0, y = 0;  ///< tile whose channel is consumed
  bool vertical = false;
};

struct RoutingResult {
  CongestionMap map;
  std::vector<std::vector<RouteStep>> routes;  ///< per packing net
  double totalWirelength = 0.0;  ///< bit-weighted routed length
  std::size_t overflowTiles = 0; ///< tiles over 100% after the last iteration
  int iterationsRun = 0;
};

/// Routes all packing nets under `placement`.
RoutingResult route(const Packing& packing, const Placement& placement,
                    const Device& device, const RouterConfig& config = {});

/// RUDY-style probabilistic congestion estimate (no actual routing).
CongestionMap estimateRudy(const Packing& packing,
                           const Placement& placement, const Device& device);

}  // namespace hcp::fpga
