#include "core/map_predictor.hpp"

#include <utility>

#include "fpga/router.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hcp::core {

fpga::CongestionMap placeAndExtract(apps::AppDesign&& app,
                                    const fpga::Device& device,
                                    const FlowConfig& config) {
  HCP_SPAN("place_and_extract");
  hls::SynthesisOptions synth = config.synthesis;
  const hls::SynthesizedDesign design =
      hls::synthesize(std::move(app.module), app.directives, synth);
  const rtl::GeneratedRtl rtl = rtl::generateRtl(design);
  const auto netlistIssues = rtl.netlist.validate();
  HCP_CHECK_MSG(netlistIssues.empty(), app.name << ": "
                                                << netlistIssues.front());
  // Mirror runFlow's parameter derivation exactly: a mismatch here would
  // estimate a different placement than the one runFlow routes.
  fpga::ParConfig par = config.par;
  par.placer.seed = config.seed;
  const fpga::Packing packing = fpga::pack(rtl.netlist, device);
  const fpga::Placement placement =
      fpga::place(packing, device, par.placer);
  return fpga::estimateRudy(packing, placement, device);
}

}  // namespace hcp::core
