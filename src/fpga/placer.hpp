// Simulated-annealing placement (VPR-style).
//
// Each cluster is assigned to one tile of its site class; the annealer
// minimizes total bit-weighted half-perimeter wirelength (HPWL) with
// swap/relocate moves inside a shrinking range window. Deterministic for a
// given seed. The placement is what turns IR structure into *spatial*
// congestion: replicas of an unrolled loop spread over the fabric (Fig 5's
// centre-vs-margin label divergence comes from exactly this).
//
// The per-move cost kernel is incremental, following VPR's update_bb: each
// net carries its bounding box plus the number of pins sitting on each of
// the four bounding edges, so moving a pin updates the box in O(1) — a full
// O(fanout) rescan happens only when the last pin leaves an edge and the
// box may shrink (counted as placer_box_rescans). Hot-path state is laid
// out as flat arrays (CSR cluster->net adjacency with per-net pin
// multiplicities; separate coordinate / edge-count / weight arrays) for
// cache locality. There is one kernel: golden placement digests, written
// while a pre-incremental reference kernel still existed and was asserted
// bit-equal to this one, pin its output on random and bundled-design
// packings, and debug builds recount the cost at every temperature step.
// Placer speed is measured by perfbench (fpga.place_ns_per_move). See
// DESIGN.md §15.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/packer.hpp"
#include "support/rng.hpp"

namespace hcp::fpga {

struct PlacerConfig {
  std::uint64_t seed = 1;
  /// Moves attempted per temperature = effort * numClusters.
  double effort = 20.0;
  double coolingRate = 0.92;
  /// Anneal stops when temperature falls below this fraction of the initial.
  double stopFraction = 1e-4;

  // Congestion-driven spreading: the device is divided into regionSize^2
  // regions; a region whose total cluster pin-bits exceed its routing
  // supply (supplyFraction of the channel capacity crossing it) is
  // penalized quadratically. This keeps small designs from collapsing into
  // an unroutable dense blob, as commercial congestion-aware placers do.
  std::uint32_t regionSize = 6;
  double supplyFraction = 0.55;
  double densityWeight = 3.0;  ///< 0 disables spreading (pure-HPWL ablation)
};

struct TileXY {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
};

struct Placement {
  std::vector<TileXY> tileOfCluster;
  double cost = 0.0;   ///< final bit-weighted HPWL
  std::uint64_t movesAccepted = 0;
  std::uint64_t movesTried = 0;
};

/// Places `packing` on `device`.
Placement place(const Packing& packing, const Device& device,
                const PlacerConfig& config = {});

/// Bit-weighted HPWL of the whole packing under a placement (for tests and
/// ablations): a from-scratch recount, independent of the annealer's
/// incremental bookkeeping and without its fanout weighting.
double totalWirelength(const Packing& packing, const Placement& placement);

}  // namespace hcp::fpga
