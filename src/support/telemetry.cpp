#include "support/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <ostream>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/textio.hpp"
#include "support/tracing.hpp"

namespace hcp::support::telemetry {

namespace {

const char* const kCounterNames[kNumCounters] = {
    "flows_run",
    "hls_functions_synthesized",
    "placer_moves_proposed",
    "placer_moves_accepted",
    "placer_moves_rejected",
    "placer_box_rescans",
    "router_iterations",
    "router_ripups",
    "router_overflow_tiles",
    "router_dirty_tiles",
    "router_tiles_settled",
    "sta_arrival_propagations",
    "trace_cells_traced",
    "dataset_samples_extracted",
    "gbrt_boosting_rounds",
    "cv_folds_evaluated",
    "flowcache_hit",
    "flowcache_miss",
    "flowcache_write",
    "flowcache_corrupt",
    "flowcache_store_error",
    "flowcache_load_error",
    "flowcache_degraded",
    "failpoints_fired",
    "serve_requests",
    "serve_batches",
    "serve_errors",
    "serve_rejected",
    "serve_cache_hits",
    "metrics_writes",
    "metrics_write_error",
    "trace_flush_error",
    "serve_map_requests",
    "shard_writes",
    "shard_reads",
};

const char* const kHistogramNames[kNumHistograms] = {
    "placer_accepted_move_delta",
    "router_overflow_tiles_per_iter",
    "sta_slack_ns",
    "net_fanout",
    "dataset_label_pct",
    "cv_fold_mae",
    "cv_fold_medae",
    "serve_batch_size",
    "serve_queue_depth",
    "serve_request_latency_ms",
    "serve_queue_wait_ms",
    "serve_exec_ms",
    "serve_serialize_ms",
};

/// Global registry: totals flushed out of thread frames. Guarded by a
/// mutex — it is touched only at snapshot/reset time, never on hot paths.
struct Registry {
  std::mutex mu;
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistStat, kNumHistograms> histograms{};
  std::map<std::string, detail::SpanStat> spans;
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local detail::Frame tlRootFrame;
thread_local detail::Frame* tlFrame = nullptr;

/// Merges `from`'s counters and spans into (counters, spans), prefixing
/// span paths with `prefix` (the receiver's active span path).
void mergeFrameInto(std::array<std::uint64_t, kNumCounters>& counters,
                    std::map<std::string, detail::SpanStat>& spans,
                    const detail::Frame& from, const std::string& prefix,
                    std::uint32_t depthShift) {
  for (std::size_t i = 0; i < kNumCounters; ++i)
    counters[i] += from.counters[i];
  for (const auto& [path, stat] : from.spans) {
    const std::string key = prefix.empty() ? path : prefix + "/" + path;
    detail::SpanStat& dst = spans[key];
    dst.count += stat.count;
    dst.wallNs += stat.wallNs;
    dst.depth = stat.depth + depthShift;
  }
}

std::chrono::steady_clock::time_point& reportStartTime() {
  static std::chrono::steady_clock::time_point t;
  return t;
}

bool& reportStartValid() {
  static bool valid = false;
  return valid;
}

/// Prints a double with enough digits to round-trip exactly: histogram
/// sums/extrema must compare equal across runs, not just look equal.
void jsonNumber(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

std::string_view counterName(Counter c) {
  const auto i = static_cast<std::size_t>(c);
  HCP_CHECK(i < kNumCounters);
  return kCounterNames[i];
}

std::string_view histogramName(Histogram h) {
  const auto i = static_cast<std::size_t>(h);
  HCP_CHECK(i < kNumHistograms);
  return kHistogramNames[i];
}

std::size_t HistStat::bucketIndex(double v) {
  constexpr std::size_t kZeroBucket = kBuckets / 2;  // 32
  if (v == 0.0 || std::isnan(v)) return kZeroBucket;
  const double mag = std::abs(v);
  int e;
  if (std::isinf(mag)) {
    e = kMaxExp;
  } else {
    e = std::ilogb(mag);  // floor(log2(mag)) for finite non-zero values
    e = std::clamp(e, kMinExp, kMaxExp);
  }
  const auto slot = static_cast<std::size_t>(e - kMinExp);  // 0..31
  return v > 0.0 ? kZeroBucket + 1 + slot : kZeroBucket - 1 - slot;
}

void HistStat::add(double v) {
  if (std::isnan(v)) return;
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  ++buckets[bucketIndex(v)];
}

void HistStat::merge(const HistStat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

double HistStat::percentile(double q) const {
  if (count == 0) return 0.0;
  constexpr std::size_t kZeroBucket = kBuckets / 2;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += buckets[b];
    if (cum < target) continue;
    double edge;
    if (b == kZeroBucket) {
      edge = 0.0;
    } else if (b > kZeroBucket) {
      const int e = kMinExp + static_cast<int>(b - kZeroBucket - 1);
      edge = std::ldexp(1.0, e + 1);  // upper edge of [2^e, 2^(e+1))
    } else {
      const int e = kMinExp + static_cast<int>(kZeroBucket - 1 - b);
      edge = -std::ldexp(1.0, e);  // upper edge of [-2^(e+1), -2^e)
    }
    return std::clamp(edge, min, max);
  }
  return max;
}

namespace detail {

std::atomic<bool> gEnabled{false};

Frame& currentFrame() { return tlFrame != nullptr ? *tlFrame : tlRootFrame; }

std::size_t spanEnter(std::string_view name) {
  Frame& f = currentFrame();
  const std::size_t prevLen = f.path.size();
  if (!f.path.empty()) f.path += '/';
  f.path += name;
  ++f.depth;
  if (tracing::enabled()) tracing::recordBegin(f.path, f.taskIndex);
  return prevLen;
}

void spanExit(std::size_t prevPathLen, std::uint64_t elapsedNs) {
  Frame& f = currentFrame();
  HCP_CHECK(f.depth > 0 && prevPathLen <= f.path.size());
  SpanStat& stat = f.spans[f.path];
  ++stat.count;
  stat.wallNs += elapsedNs;
  stat.depth = f.depth - 1;
  if (tracing::enabled()) tracing::recordEnd(f.path, f.taskIndex);
  f.path.resize(prevPathLen);
  --f.depth;
}

void countSlow(Counter c, std::uint64_t delta) {
  currentFrame().counters[static_cast<std::size_t>(c)] += delta;
}

void observeSlow(Histogram h, double value) {
  Frame& f = currentFrame();
  if (f.hist == nullptr)
    f.hist = std::make_unique<std::array<HistStat, kNumHistograms>>();
  (*f.hist)[static_cast<std::size_t>(h)].add(value);
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TaskCapture::TaskCapture(Frame& slot) : prev_(tlFrame) { tlFrame = &slot; }

TaskCapture::~TaskCapture() { tlFrame = prev_; }

void mergeIntoCurrent(const Frame& delta) {
  Frame& f = currentFrame();
  if (delta.hist != nullptr) {
    if (f.hist == nullptr)
      f.hist = std::make_unique<std::array<HistStat, kNumHistograms>>();
    for (std::size_t i = 0; i < kNumHistograms; ++i)
      (*f.hist)[i].merge((*delta.hist)[i]);
  }
  mergeFrameInto(f.counters, f.spans, delta, f.path, f.depth);
}

}  // namespace detail

void setEnabled(bool on) {
  detail::gEnabled.store(on, std::memory_order_relaxed);
}

const Snapshot::SpanEntry* Snapshot::span(std::string_view path) const {
  for (const SpanEntry& e : spans)
    if (e.path == path) return &e;
  return nullptr;
}

Snapshot snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  detail::Frame& f = detail::currentFrame();
  // Flush the caller's frame; keep its open-span path/depth so spans that
  // straddle the snapshot still close correctly.
  mergeFrameInto(reg.counters, reg.spans, f, "", 0);
  if (f.hist != nullptr) {
    for (std::size_t i = 0; i < kNumHistograms; ++i)
      reg.histograms[i].merge((*f.hist)[i]);
    f.hist.reset();
  }
  f.counters.fill(0);
  f.spans.clear();

  Snapshot snap;
  snap.counters = reg.counters;
  snap.histograms = reg.histograms;
  snap.spans.reserve(reg.spans.size());
  for (const auto& [path, stat] : reg.spans)
    snap.spans.push_back({path, stat.depth, stat.count, stat.wallNs});
  return snap;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.counters.fill(0);
  reg.histograms.fill({});
  reg.spans.clear();
  detail::Frame& f = detail::currentFrame();
  f.counters.fill(0);
  f.hist.reset();
  f.spans.clear();
}

void writeReport(std::ostream& os, const RunReport& meta,
                 const Snapshot& snap) {
  os << "{\n";
  os << "  \"schema_version\": " << kReportSchemaVersion << ",\n";
  os << "  \"tool\": \"";
  json::writeEscaped(os, meta.tool);
  os << "\",\n  \"command\": \"";
  json::writeEscaped(os, meta.command);
  os << "\",\n  \"designs\": [";
  for (std::size_t i = 0; i < meta.designs.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"';
    json::writeEscaped(os, meta.designs[i]);
    os << '"';
  }
  os << "],\n";
  os << "  \"seed\": " << meta.seed << ",\n";
  os << "  \"threads\": " << meta.threads << ",\n";
  os << "  \"total_wall_ms\": " << meta.totalWallMs << ",\n";
  os << "  \"spans\": [\n";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const auto& e = snap.spans[i];
    os << "    {\"path\": \"";
    json::writeEscaped(os, e.path);
    os << "\", \"depth\": " << e.depth << ", \"count\": " << e.count
       << ", \"wall_ms\": " << static_cast<double>(e.wallNs) / 1e6 << "}"
       << (i + 1 < snap.spans.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"counters\": {\n";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << "    \"" << kCounterNames[i] << "\": " << snap.counters[i]
       << (i + 1 < kNumCounters ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"histograms\": {\n";
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const HistStat& h = snap.histograms[i];
    os << "    \"" << kHistogramNames[i] << "\": {\"count\": " << h.count
       << ", \"sum\": ";
    jsonNumber(os, h.sum);
    os << ", \"min\": ";
    jsonNumber(os, h.count ? h.min : 0.0);
    os << ", \"max\": ";
    jsonNumber(os, h.count ? h.max : 0.0);
    os << ", \"p50\": ";
    jsonNumber(os, h.percentile(0.50));
    os << ", \"p90\": ";
    jsonNumber(os, h.percentile(0.90));
    os << ", \"p99\": ";
    jsonNumber(os, h.percentile(0.99));
    os << "}" << (i + 1 < kNumHistograms ? "," : "") << "\n";
  }
  os << "  }\n}\n";
}

void writeReportToFile(const std::string& path, RunReport meta) {
  if (meta.totalWallMs == 0.0 && reportStartValid()) {
    meta.totalWallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - reportStartTime())
            .count();
  }
  const Snapshot snap = snapshot();
  // The report is a user-requested artifact: all I/O verified, written
  // atomically, failures raise hcp::IoError (exit code 5 in the CLIs).
  txt::CheckedFileWriter writer(path, "report");
  writeReport(writer.stream(), meta, snap);
  writer.commit();
}

std::string initReportFromFlag(std::string flagValue) {
  std::string path = std::move(flagValue);
  if (path.empty()) {
    if (const char* env = std::getenv("HCP_REPORT")) path = env;
  }
  if (!path.empty()) {
    setEnabled(true);
    reportStartTime() = std::chrono::steady_clock::now();
    reportStartValid() = true;
  }
  return path;
}

}  // namespace hcp::support::telemetry
