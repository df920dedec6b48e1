#include "core/flow_serialize.hpp"

#include <sstream>

#include "fpga/serialize.hpp"
#include "hls/serialize.hpp"
#include "ir/serialize.hpp"
#include "rtl/serialize.hpp"
#include "support/envelope.hpp"
#include "support/flowcache.hpp"
#include "support/textio.hpp"
#include "trace/serialize.hpp"

namespace hcp::core {

namespace txt = support::txt;

void writeFlowResult(std::ostream& os, const FlowResult& result) {
  txt::preparePrecision(os);
  os << "hcp-flowresult " << support::flowcache::kSchemaVersion << '\n';
  os << "name ";
  txt::writeStr(os, result.name);
  os << '\n';
  hls::writeDesign(os, result.design);
  rtl::writeGeneratedRtl(os, result.rtl);
  fpga::writeImplementation(os, result.impl);
  trace::writeBackTrace(os, result.traced);
  os << "headline " << result.wnsNs << ' ' << result.maxFrequencyMhz << ' '
     << result.latencyCycles << ' ' << result.maxVCongestion << ' '
     << result.maxHCongestion << ' ' << result.congestedTiles << '\n';
  os << "end\n";
}

FlowResult readFlowResult(std::istream& is) {
  txt::expect(is, "hcp-flowresult");
  const auto version = txt::read<std::uint32_t>(is, "flow-result version");
  HCP_CHECK_MSG(version == support::flowcache::kSchemaVersion,
                "flow-result schema " << version << ", expected "
                                      << support::flowcache::kSchemaVersion);
  FlowResult result;
  txt::expect(is, "name");
  result.name = txt::readStr(is, "flow-result name");
  result.design = hls::readDesign(is);
  result.rtl = rtl::readGeneratedRtl(is);
  result.impl = fpga::readImplementation(is);
  result.traced = trace::readBackTrace(is);
  txt::expect(is, "headline");
  result.wnsNs = txt::read<double>(is, "headline wnsNs");
  result.maxFrequencyMhz = txt::read<double>(is, "headline maxFrequencyMhz");
  result.latencyCycles =
      txt::read<std::uint64_t>(is, "headline latencyCycles");
  result.maxVCongestion = txt::read<double>(is, "headline maxVCongestion");
  result.maxHCongestion = txt::read<double>(is, "headline maxHCongestion");
  result.congestedTiles =
      txt::read<std::size_t>(is, "headline congestedTiles");
  txt::expect(is, "end");
  txt::expectEnd(is, "flow result");
  return result;
}

std::string flowCacheKey(const apps::AppDesign& app,
                         const fpga::Device& device,
                         const FlowConfig& config) {
  // Canonical text of the structured inputs; hashing the same writers the
  // cache payload uses keeps the key in lockstep with the formats.
  std::ostringstream canon;
  ir::writeModule(canon, *app.module);
  hls::writeDirectives(canon, app.directives);
  hls::writeScheduleConstraints(canon, config.synthesis.schedule);
  fpga::writeParConfig(canon, config.par);
  fpga::writeDeviceFingerprint(canon, device);

  support::Fnv1a h;
  h.u64(support::flowcache::kSchemaVersion)
      .str(app.name)
      .str(canon.str())
      .u64(config.synthesis.bind.maxGroupSize)
      .u64(config.synthesis.bind.shareInPipelinedLoops ? 1 : 0)
      .u64(config.synthesis.runFrontendPasses ? 1 : 0)
      .u64(config.seed);
  return h.hex();
}

}  // namespace hcp::core
