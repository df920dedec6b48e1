// String joining, for lists in messages and report cells (the registry's
// unknown-design error, Table II's example column).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hcp {

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

}  // namespace hcp
