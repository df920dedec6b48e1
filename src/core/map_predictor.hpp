// The congestion-map predictor: the placement-only partial flow —
// synthesize -> RTL -> pack -> place, seeded exactly like core::runFlow —
// followed by fpga::estimateRudy of the placement. Routing and STA are
// skipped; that skip is the paper's point: the map answers "where will
// congestion land" without paying for the router. No learned model sits on
// top: the ones tried scored a higher held-out MAE than RUDY itself
// (EXPERIMENTS.md "The RUDY gate").
#pragma once

#include "apps/app_design.hpp"
#include "core/flow.hpp"
#include "fpga/congestion.hpp"

namespace hcp::core {

/// Places the design exactly as runFlow would (placer seed = config.seed)
/// and returns the RUDY estimate of that placement. Consumes the app.
fpga::CongestionMap placeAndExtract(apps::AppDesign&& app,
                                    const fpga::Device& device,
                                    const FlowConfig& config = {});

}  // namespace hcp::core
