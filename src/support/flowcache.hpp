// Content-addressed on-disk cache for flow results (and any other blob the
// pipeline wants to memoize).
//
// The hottest path in this repository is re-running the full
// synthesize -> pack -> place -> route -> trace flow for a design that has
// not changed — grid searches, repeated bench runs and the Table VI case
// study (three variants differing in one module) all recompute flows whose
// inputs are bit-identical to a previous run. Because the whole pipeline is
// deterministic under its seed (DESIGN.md §9), a flow result is a pure
// function of its inputs, so it can be cached under a digest of those
// inputs and replayed byte-identically.
//
// This layer is content-agnostic: it stores opaque string payloads under
// 64-bit keys in the sealed envelope of support/envelope.hpp (magic
// `hcp-flowcache`, no counts) and detects every malformed shape —
// truncation, bit flips, blanked files, version skew, key mismatch,
// trailing garbage — by checking the envelope before handing the payload
// back. A corrupt entry is *never* returned: it is counted
// (flowcache_corrupt), logged with its path and the failed check, and
// treated as a miss so the caller recomputes (and the subsequent store()
// self-heals the entry). Serialization of the actual FlowResult lives in the owning layers
// (ir/hls/rtl/fpga/trace `serialize.hpp`, composed by core/flow_serialize).
//
// Telemetry: load() counts flowcache_miss / flowcache_corrupt /
// flowcache_load_error, store() counts flowcache_write on success and
// flowcache_store_error on a degraded failure. The *hit* counter is bumped
// by the caller after the payload also parsed back into a live struct, so a
// hit always means "a usable result came out of the cache".
//
// Failure contract (DESIGN.md §14): the cache is an accelerator, never a
// correctness dependency. No cache I/O failure — full disk, read-only
// directory, unreadable entry, injected flowcache.* fault — may abort a
// flow that would succeed without the cache; every such failure degrades to
// a recompute, counted and logged once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace hcp::support::flowcache {

/// Bump when the cache envelope or any cached serialization format changes
/// incompatibly. The version participates in both the envelope header and
/// the flow digest, so a version bump invalidates every old entry.
inline constexpr std::uint32_t kSchemaVersion = 1;

/// One cache directory. Each entry is a single file `<dir>/<key>.flow`
/// written atomically (temp file + rename), so concurrent writers — pool
/// tasks in one process or several processes sharing HCP_CACHE — can only
/// ever observe whole entries.
class FlowCache {
 public:
  /// Creates `dir` (and parents) if needed. Throws hcp::Error when the
  /// directory cannot be created or is not writable.
  explicit FlowCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string entryPath(const std::string& key) const;

  /// Returns the validated payload for `key`, or nullopt on miss, on a
  /// corrupt entry (flowcache_corrupt) *or* on an unreadable one
  /// (flowcache_load_error) — each counted and the first logged with its
  /// path; the caller cannot tell the difference and simply recomputes.
  std::optional<std::string> load(const std::string& key) const;

  /// Atomically stores `payload` under `key` (temp file + rename),
  /// replacing any existing entry. Never throws on I/O failure: per the
  /// degrade contract (DESIGN.md §14) a failed open/write/rename is
  /// counted (flowcache_store_error), logged once, its temp file removed,
  /// and false returned — the flow that produced the payload still
  /// succeeds. Returns true when the entry landed (flowcache_write).
  bool store(const std::string& key, const std::string& payload) const;

 private:
  std::string dir_;
};

/// True once any cache store/load I/O failure has degraded the cache in
/// this process. One-shot gauge, never cleared by later successes: a
/// one-shot run shrugs a degraded cache off, but a daemon that never
/// restarts would otherwise silently serve cold forever — hcp_serve puts
/// this in its periodic status line, and the first transition bumps the
/// flowcache_degraded report counter so operators can see it.
bool degraded();

namespace detail {
/// Clears the degraded latch (tests only — the gauge is process-lifetime).
void resetDegraded();
}  // namespace detail

/// Process-wide cache consulted by core::runFlow. Null when caching is off
/// (the default). Not thread-safe against concurrent setGlobalDir(): arm the
/// cache at startup (CLI flag / env parsing), before any flow runs.
FlowCache* global();

/// Arms the global cache at `dir` ("" disarms it).
void setGlobalDir(const std::string& dir);

/// Current global cache directory ("" = off).
std::string globalDir();

/// Resolves the cache directory: `--cache DIR` / `--cache=DIR` on the
/// command line, else the HCP_CACHE environment variable. Arms the global
/// cache when a directory is found and returns it ("" = caching off). A
/// `--cache` with no value or an empty `--cache=` is a usage error (exit 2),
/// mirroring --report/--trace.
std::string initCacheFromArgs(int argc, char** argv);

/// RAII global-cache override for tests.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& dir) : prev_(globalDir()) {
    setGlobalDir(dir);
  }
  ~ScopedCacheDir() { setGlobalDir(prev_); }
  ScopedCacheDir(const ScopedCacheDir&) = delete;
  ScopedCacheDir& operator=(const ScopedCacheDir&) = delete;

 private:
  std::string prev_;
};

}  // namespace hcp::support::flowcache
