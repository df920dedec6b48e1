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
// cache locality. The pre-incremental kernel is retained as
// CostUpdate::kReference: both paths draw the same RNG stream and sum cost
// deltas in the same order, so they produce bit-identical placements —
// asserted by the equivalence tests on random and bundled-design packings.
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

  /// Cost-update kernel. kIncremental (default) is the O(1) edge-count
  /// bounding-box path; kReference is the pre-incremental per-net full
  /// rescan, kept as the oracle of the equivalence tests.
  /// Both yield bit-identical placements for the same seed.
  enum class CostUpdate : std::uint8_t { kIncremental, kReference };
  CostUpdate costUpdate = CostUpdate::kIncremental;
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
/// ablations; the placer tracks it incrementally). Shares the per-net
/// bounding-box kernel with the annealer, so there is exactly one HPWL
/// implementation to keep correct.
double totalWirelength(const Packing& packing, const Placement& placement);

}  // namespace hcp::fpga
