// Text serialization of physical-implementation results (flow-cache
// format): packing, placement, routing (congestion map + per-net routed
// trees) and the timing report, plus the device fingerprint that
// participates in the flow-cache key. Doubles use 17 significant digits;
// save -> load -> save is byte-identical. Also the `hcp-map` artifact, the
// user-facing per-tile utilization of one congestion map.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "fpga/par.hpp"

namespace hcp::fpga {

void writeImplementation(std::ostream& os, const Implementation& impl);

/// Reads what writeImplementation wrote. Throws hcp::Error on malformed
/// input.
Implementation readImplementation(std::istream& is);

/// Canonical text fingerprint of a device: every Config field. Two devices
/// fingerprint identically iff pack/place/route behave identically on them.
void writeDeviceFingerprint(std::ostream& os, const Device& device);

/// Scalar config blocks (flow-cache key inputs).
void writeParConfig(std::ostream& os, const ParConfig& config);

/// The `hcp-map` artifact: a version line, the grid shape, then the V and H
/// utilization (percent) as length-prefixed row-major vectors:
///   hcp-map 1
///   <width> <height>
///   vutil <n> <v...>
///   hutil <n> <h...>
/// Nothing reads it back.
void writeMapArtifact(std::ostream& os, const CongestionMap& map);
/// Atomic, verified write (failpoint site "mapout"). Throws hcp::IoError.
void saveMapArtifact(const CongestionMap& map, const std::string& path);

}  // namespace hcp::fpga
