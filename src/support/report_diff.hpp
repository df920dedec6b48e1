// Report diffing and profiling: the regression gate behind
// `hcp_cli compare-reports`, and the per-span breakdown behind
// `hcp_cli profile`.
//
// Compares two telemetry run reports (support/telemetry.hpp, schema
// version 2) span by span, counter by counter and histogram by histogram,
// prints the deltas, and decides whether NEW regressed relative to BASE:
//
//   - wall time: with maxWallRegressPct >= 0, total_wall_ms may grow by at
//     most that percentage (spans are printed but not individually gated —
//     per-span wall noise would make the gate flap);
//   - counters: with requireCountersEqual, every counter total and every
//     histogram observation count must match exactly. The pipeline is
//     deterministic at fixed seed, so any drift is a real behaviour change
//     — the cheap-to-check shadow of a functional diff.
//
// Exit codes are part of the contract (CI keys off them):
//   0 = no regression, 1 = regression, 4 = malformed input or unsupported
//   schema_version. Distinct from hcp_cli's 2 (usage) and 3 (internal).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hcp::support::report_diff {

inline constexpr int kExitOk = 0;
inline constexpr int kExitRegression = 1;
inline constexpr int kExitBadInput = 4;

struct Options {
  double maxWallRegressPct = -1.0;  ///< < 0 disables the wall-time gate
  bool requireCountersEqual = false;
  std::string benchOutPath;  ///< write a machine-readable summary here ("" = off)
};

/// Compares the two report files, printing a human-readable delta table to
/// `out`. Returns one of the kExit* codes above; never throws on bad input
/// files (that is what kExitBadInput reports).
int compareReportFiles(const std::string& basePath,
                       const std::string& newPath, const Options& options,
                       std::ostream& out);

/// One row of a report's profile.
struct ProfileRow {
  std::string path;  ///< span path, or kOutsideSpans
  std::uint64_t count = 0;  ///< times the span was entered (0 for outside)
  double totalMs = 0.0;     ///< the span's wall_ms
  double selfMs = 0.0;      ///< totalMs minus its direct children's, >= 0
  double share = 0.0;       ///< selfMs / the run's time
};

/// The row for report time that no top-level span covers.
inline constexpr const char* kOutsideSpans = "(outside spans)";

/// Profiles the report at `path`: one row per span, plus a kOutsideSpans
/// row for the part of total_wall_ms no top-level span covers, largest
/// self time first. A span's wall_ms sums every thread's time in it, so
/// children that ran on several threads can outgrow their parent; its self
/// time is then 0, and the run's time (the sum of every row's self time)
/// is thread time rather than total_wall_ms. The shares sum to 1 unless
/// the report holds no time at all. Throws hcp::Error on malformed input.
std::vector<ProfileRow> profileReport(const std::string& path);

/// `hcp_cli profile`: prints profileReport's table to `out`. Returns
/// kExitOk, or kExitBadInput (with a message on `out`) when the report
/// cannot be read; never throws on a bad input file.
int printProfile(const std::string& path, std::ostream& out);

}  // namespace hcp::support::report_diff
