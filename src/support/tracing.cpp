#include "support/tracing.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <limits>
#include <mutex>
#include <ostream>
#include <vector>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::support::tracing {

namespace {

std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Phase : std::uint8_t { Begin, End, Complete };

struct Event {
  std::uint64_t tsNs = 0;
  std::uint64_t durNs = 0;  ///< Complete events only
  std::int64_t task = -1;
  std::string path;
  std::string corr;  ///< correlation id (args.request); "" = none
  Phase phase = Phase::Begin;
};

/// One thread's bounded event log. Appended to only by the owning thread;
/// read at export time, when recording threads are quiescent (pool workers
/// idle between batches, main thread doing the export).
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::size_t capacity = kDefaultBufferCapacity;
  std::vector<Event> events;
  std::atomic<std::uint64_t> dropped{0};
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;  ///< owned, kept for process lifetime
  std::size_t capacity = kDefaultBufferCapacity;
  std::uint64_t epochNs = 0;
  std::string autoFlushPath;  ///< "" = incremental flushing off
  TraceMeta autoFlushMeta;
};

TraceRegistry& registry() {
  static TraceRegistry r;
  return r;
}

std::atomic<bool> gTraceEnabled{false};

thread_local ThreadBuffer* tlBuffer = nullptr;

ThreadBuffer& threadBuffer() {
  if (tlBuffer == nullptr) {
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    auto* buf = new ThreadBuffer;  // never freed: events must survive thread exit
    buf->tid = static_cast<std::uint32_t>(reg.buffers.size());
    buf->capacity = reg.capacity;
    buf->events.reserve(std::min<std::size_t>(buf->capacity, 1024));
    reg.buffers.push_back(buf);
    tlBuffer = buf;
  }
  return *tlBuffer;
}

void record(std::string_view path, std::int64_t taskIndex, Phase phase) {
  ThreadBuffer& buf = threadBuffer();
  if (buf.events.size() >= buf.capacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event e;
  e.tsNs = steadyNowNs();
  e.task = taskIndex;
  e.path.assign(path.data(), path.size());
  e.phase = phase;
  buf.events.push_back(std::move(e));
}

}  // namespace

bool enabled() { return gTraceEnabled.load(std::memory_order_relaxed); }

void setEnabled(bool on) {
  if (on) {
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    if (reg.epochNs == 0) reg.epochNs = steadyNowNs();
  }
  gTraceEnabled.store(on, std::memory_order_relaxed);
}

void setBufferCapacity(std::size_t events) {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.capacity = events;
}

void recordBegin(std::string_view path, std::int64_t taskIndex) {
  record(path, taskIndex, Phase::Begin);
}

void recordEnd(std::string_view path, std::int64_t taskIndex) {
  record(path, taskIndex, Phase::End);
}

void recordComplete(std::string_view path, std::uint64_t startNs,
                    std::uint64_t durNs, std::string_view correlation) {
  ThreadBuffer& buf = threadBuffer();
  if (buf.events.size() >= buf.capacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event e;
  e.tsNs = startNs;
  e.durNs = durNs;
  e.task = -1;
  e.path.assign(path.data(), path.size());
  e.corr.assign(correlation.data(), correlation.size());
  e.phase = Phase::Complete;
  buf.events.push_back(std::move(e));
}

std::uint64_t droppedEvents() {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t total = 0;
  for (const ThreadBuffer* b : reg.buffers)
    total += b->dropped.load(std::memory_order_relaxed);
  return total;
}

void reset() {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (ThreadBuffer* b : reg.buffers) {
    b->events.clear();
    b->capacity = reg.capacity;
    b->dropped.store(0, std::memory_order_relaxed);
  }
  reg.epochNs = steadyNowNs();
}

void writeChromeTrace(std::ostream& os, const TraceMeta& meta) {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);

  const auto relUs = [&](std::uint64_t tsNs) {
    return tsNs >= reg.epochNs
               ? static_cast<double>(tsNs - reg.epochNs) / 1e3
               : 0.0;
  };

  std::uint64_t dropped = 0;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"";
  json::writeEscaped(os, meta.tool);
  os << "\"}}";
  for (const ThreadBuffer* buf : reg.buffers) {
    os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << buf->tid << ", \"args\": {\"name\": \""
       << (buf->tid == 0 ? "main" : "worker ");
    if (buf->tid != 0) os << buf->tid;
    os << "\"}}";
    dropped += buf->dropped.load(std::memory_order_relaxed);
    for (const Event& e : buf->events) {
      char ts[32];
      std::snprintf(ts, sizeof ts, "%.3f", relUs(e.tsNs));
      const char ph = e.phase == Phase::Begin
                          ? 'B'
                          : e.phase == Phase::End ? 'E' : 'X';
      os << ",\n    {\"name\": \"";
      json::writeEscaped(os, e.path);
      os << "\", \"cat\": \"span\", \"ph\": \"" << ph
         << "\", \"pid\": 1, \"tid\": " << buf->tid << ", \"ts\": " << ts;
      if (e.phase == Phase::Complete) {
        char dur[32];
        std::snprintf(dur, sizeof dur, "%.3f",
                      static_cast<double>(e.durNs) / 1e3);
        os << ", \"dur\": " << dur;
      }
      os << ", \"args\": {\"task\": " << e.task;
      if (!e.corr.empty()) {
        os << ", \"request\": \"";
        json::writeEscaped(os, e.corr);
        os << '"';
      }
      os << "}}";
    }
  }
  os << "\n  ],\n  \"otherData\": {\"tool\": \"";
  json::writeEscaped(os, meta.tool);
  os << "\", \"command\": \"";
  json::writeEscaped(os, meta.command);
  os << "\", \"schema_version\": " << telemetry::kReportSchemaVersion
     << ", \"dropped_events\": " << dropped << "}\n}\n";
}

void writeChromeTraceToFile(const std::string& path, const TraceMeta& meta) {
  // User-requested artifact: verified, atomic, IoError on failure (exit 5).
  txt::CheckedFileWriter writer(path, "trace");
  writeChromeTrace(writer.stream(), meta);
  writer.commit();
}

void configureAutoFlush(std::string path, TraceMeta meta) {
  TraceRegistry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.autoFlushPath = std::move(path);
  reg.autoFlushMeta = std::move(meta);
}

bool autoFlush() {
  std::string path;
  TraceMeta meta;
  {
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    if (reg.autoFlushPath.empty()) return true;
    path = reg.autoFlushPath;
    meta = reg.autoFlushMeta;
  }
  if (!enabled()) return true;
  try {
    writeChromeTraceToFile(path, meta);
  } catch (const hcp::Error&) {
    telemetry::count(telemetry::Counter::TraceFlushError);
    return false;
  }
  return true;
}

std::string initTraceFromFlag(std::string flagValue) {
  std::string path = std::move(flagValue);
  if (path.empty()) {
    if (const char* env = std::getenv("HCP_TRACE")) path = env;
  }
  if (path.empty()) return path;
  // 0 = unset/empty (keep the default capacity); anything malformed exits 2.
  const std::uint64_t cap = env::u64OrDie(
      "HCP_TRACE_BUFFER_EVENTS", 2,
      std::numeric_limits<std::uint64_t>::max(), 0);
  if (cap != 0) setBufferCapacity(static_cast<std::size_t>(cap));
  telemetry::setEnabled(true);  // spans must be live for events to exist
  setEnabled(true);
  return path;
}

}  // namespace hcp::support::tracing
