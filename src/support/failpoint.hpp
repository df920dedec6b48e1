// Named-failpoint fault injection for the persistence surface.
//
// Every file-I/O boundary in the repository (flow-cache store/load, run
// report, trace timeline, CSV tables, model/predictor save) asks a named
// failpoint whether it should fail *before* doing the real work. Disarmed —
// the default — that question is one relaxed atomic load and a branch, so
// production runs pay nothing. Armed via the HCP_FAILPOINTS environment
// variable or the --failpoints flag, the named sites fail deterministically,
// which is what the failure-path tests and the CI fault-injection job need:
// ENOSPC mid-store, rename failure, unreadable cache entries — on demand, at
// any thread count, with no root privileges or full disks required.
//
// Spec grammar (comma-separated entries):
//
//   HCP_FAILPOINTS=site            fail every hit of `site`
//   HCP_FAILPOINTS=site:N          fail the first N hits, then pass
//   HCP_FAILPOINTS=site:0.25       fail each hit with probability 0.25
//                                  (deterministic per-site PRNG sequence)
//   HCP_FAILPOINTS=a:1,b.rename    entries combine; first match wins
//
// Sites are dotted paths ("flowcache.store.write"); a configured entry
// matches a query when it equals the query or is a dot-prefix of it, so
// `flowcache.store` arms every boundary inside the store (open, write,
// rename) while `flowcache.store.rename` arms only the rename.
//
// The framework only *answers* shouldFail(); the site decides what failure
// means (CheckedFileWriter throws hcp::IoError with the path and an injected
// ENOSPC, FlowCache::load treats the entry as unreadable, ...). See
// DESIGN.md §14 for the site list and the degrade-vs-abort contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcp::support::failpoint {

namespace detail {
extern std::atomic<std::uint32_t> gNumArmed;
bool shouldFailSlow(std::string_view site);
}  // namespace detail

/// True when at least one failpoint entry is configured.
inline bool armed() {
  return detail::gNumArmed.load(std::memory_order_relaxed) != 0;
}

/// True when the failpoint `site` should fail this hit. The disarmed path is
/// one relaxed load; the armed path takes a mutex (failpoints are a test /
/// CI facility, not a hot path). Thread-safe: a `site:N` entry fires exactly
/// N times process-wide no matter how many threads race on it.
inline bool shouldFail(std::string_view site) {
  return armed() && detail::shouldFailSlow(site);
}

/// Replaces the configuration with `spec` (see grammar above; "" disarms
/// everything). Throws hcp::Error on a malformed entry. Counts reset.
void configure(const std::string& spec);

/// Disarms and forgets every entry (tests).
void clear();

/// How many times the configured entry named exactly `site` has fired.
/// 0 when the entry does not exist.
std::uint64_t firedCount(std::string_view site);

/// Configured entry names, in spec order (tests / diagnostics).
std::vector<std::string> sites();

/// Resolves the spec: `flagValue` (the `--failpoints` value the process shell
/// scanned; "" = not given), else the HCP_FAILPOINTS environment variable;
/// configures when one is found and returns it ("" = disarmed). A malformed
/// spec is a usage error: message to stderr, exit 2.
std::string initFromFlag(std::string flagValue);

/// RAII spec override for tests: configures on construction, restores the
/// previous spec on destruction.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec);
  ~ScopedFailpoints();
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

 private:
  std::string prev_;
};

}  // namespace hcp::support::failpoint
