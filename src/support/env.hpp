// Strict parsing for numeric HCP_* environment variables.
//
// Every env-driven knob used to roll its own strtol with no endptr or range
// check, so HCP_THREADS=4abc silently ran with 4 threads and
// HCP_THREADS=garbage silently fell back to hardware concurrency — the
// worst kind of misconfiguration, because the run *looks* healthy. The
// contract here matches the flag parsers (hcp_cli's parseUint): the whole
// token must be digits, it must fit the stated range, and anything else is
// a usage error that fails loudly with exit code 2 before any work runs.
//
// An *unset or empty* variable is not an error: it means "use the default"
// (CI exports HCP_THREADS="" in its serial/parallel matrix to mean exactly
// that).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hcp::support::env {

/// Strict full-token decimal parse: every character must be a digit and the
/// value must fit in uint64. Rejects "", "4abc", "-1", "+1", " 1" and
/// overflow. No locale, no base prefixes.
std::optional<std::uint64_t> parseU64(std::string_view text);

/// Strict full-token decimal floating-point parse: an optional leading '-',
/// a digit sequence with at most one '.', and an optional e/E exponent with
/// its own optional sign. Rejects "", trailing garbage ("1.5x"), hex floats
/// ("0x.8p1"), "nan"/"inf" spellings, a bare "." and values that overflow
/// to infinity — the same fail-loudly contract as parseU64, for the flag
/// parsers that used to accept whatever strtod truncated.
std::optional<double> parseF64(std::string_view text);

/// The value of integer flag `flag`: `text` parsed by parseU64 and at least
/// `minValue`. Anything else calls `usageError` with "<flag> expects an
/// integer >= <minValue>, got '<text>'"; `usageError` is the binary's
/// usage-error exit and must not return.
std::uint64_t parseCount(std::string_view flag, std::string_view text,
                         std::uint64_t minValue,
                         void (*usageError)(const std::string& message));

/// Reads the integral environment variable `var`. Unset or empty returns
/// `fallback`. A value that does not parse completely or lies outside
/// [minValue, maxValue] prints a message naming the variable to stderr and
/// exits with code 2 — the same contract as a malformed command-line flag.
std::uint64_t u64OrDie(const char* var, std::uint64_t minValue,
                       std::uint64_t maxValue, std::uint64_t fallback);

}  // namespace hcp::support::env
