#include "support/flowcache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::support::flowcache {

namespace fs = std::filesystem;
namespace telemetry = hcp::support::telemetry;

FlowCache::FlowCache(std::string dir) : dir_(std::move(dir)) {
  HCP_CHECK_MSG(!dir_.empty(), "flow cache directory must be non-empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  HCP_CHECK_MSG(!ec && fs::is_directory(dir_),
                "cannot create flow cache directory " << dir_ << ": "
                                                      << ec.message());
}

std::string FlowCache::entryPath(const std::string& key) const {
  return dir_ + "/" + key + ".flow";
}

namespace {

const envelope::Format kEnvelope{"hcp-flowcache", kSchemaVersion, 0,
                                 "flow-cache entry"};

void corrupt(const std::string& path, const char* why) {
  telemetry::count(telemetry::Counter::FlowCacheCorrupt);
  std::fprintf(stderr, "[flowcache] corrupt entry %s: %s (will recompute)\n",
               path.c_str(), why);
}

std::atomic<bool> gDegraded{false};

/// Degrade-gracefully reporting (DESIGN.md §14): count every failure, log
/// only the first of each kind so a systemically broken cache (full disk,
/// bad mount) does not flood stderr across hundreds of flows. The first
/// failure of either kind also latches the process-wide degraded gauge.
void ioFailure(telemetry::Counter counter, std::atomic<bool>& loggedOnce,
               const char* action, const std::string& detail) {
  telemetry::count(counter);
  if (!gDegraded.exchange(true, std::memory_order_relaxed))
    telemetry::count(telemetry::Counter::FlowCacheDegraded);
  if (!loggedOnce.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[flowcache] %s failed: %s (degrading to recompute; "
                 "further %s failures will not be logged)\n",
                 action, detail.c_str(), action);
  }
}

std::atomic<bool> gStoreErrorLogged{false};
std::atomic<bool> gLoadErrorLogged{false};

}  // namespace

bool degraded() { return gDegraded.load(std::memory_order_relaxed); }

namespace detail {
void resetDegraded() { gDegraded.store(false, std::memory_order_relaxed); }
}  // namespace detail

std::optional<std::string> FlowCache::load(const std::string& key) const {
  const std::string path = entryPath(key);
  if (failpoint::shouldFail("flowcache.load")) {
    ioFailure(telemetry::Counter::FlowCacheLoadError, gLoadErrorLogged,
              "load", path + ": injected read failure");
    return std::nullopt;
  }
  auto raw = txt::slurp(path);
  if (!raw) {
    // Distinguish "no entry" (the normal cold miss) from "entry exists but
    // cannot be read" (permissions, I/O error): the latter degrades too,
    // but under its own counter so operators can see a sick cache disk.
    std::error_code ec;
    if (fs::exists(path, ec) && !ec) {
      ioFailure(telemetry::Counter::FlowCacheLoadError, gLoadErrorLogged,
                "load", path + ": cannot read entry");
    } else {
      telemetry::count(telemetry::Counter::FlowCacheMiss);
    }
    return std::nullopt;
  }
  try {
    envelope::unseal(*raw, kEnvelope, key);
  } catch (const hcp::Error& e) {
    corrupt(path, e.what());
    return std::nullopt;
  }
  return raw;
}

bool FlowCache::store(const std::string& key,
                      const std::string& payload) const {
  // CheckedFileWriter gives the atomicity (unique temp file + rename, so
  // concurrent pool tasks and concurrent processes only ever expose whole
  // entries) and the verification. The cache is an accelerator, never a
  // correctness dependency: any failure — ENOSPC, read-only directory,
  // rename across a broken mount, or an injected flowcache.store.* fault —
  // is absorbed here per the degrade contract (DESIGN.md §14). The temp
  // file is removed on every failure path (writer destructor / commit).
  try {
    txt::CheckedFileWriter writer(entryPath(key), "flowcache.store");
    envelope::write(writer.stream(), kEnvelope, key, {}, payload);
    writer.commit();
  } catch (const hcp::Error& e) {
    ioFailure(telemetry::Counter::FlowCacheStoreError, gStoreErrorLogged,
              "store", e.what());
    return false;
  }
  telemetry::count(telemetry::Counter::FlowCacheWrite);
  return true;
}

namespace {
std::unique_ptr<FlowCache>& globalSlot() {
  static std::unique_ptr<FlowCache> cache;
  return cache;
}
}  // namespace

FlowCache* global() { return globalSlot().get(); }

void setGlobalDir(const std::string& dir) {
  if (dir.empty()) {
    globalSlot().reset();
  } else if (globalSlot() == nullptr || globalSlot()->dir() != dir) {
    globalSlot() = std::make_unique<FlowCache>(dir);
  }
}

std::string globalDir() {
  return globalSlot() == nullptr ? std::string() : globalSlot()->dir();
}

std::string initCacheFromFlag(std::string flagValue) {
  std::string dir = std::move(flagValue);
  if (dir.empty()) {
    if (const char* env = std::getenv("HCP_CACHE")) dir = env;
  }
  if (!dir.empty()) setGlobalDir(dir);
  return dir;
}

}  // namespace hcp::support::flowcache
