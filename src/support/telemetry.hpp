// Flow-wide telemetry: scoped spans, monotone counters, JSON run reports.
//
// The paper's pitch is that prediction is cheap *relative to the full PAR
// flow* (Table III times each stage); this facility makes that measurable on
// every run instead of inside one hand-timed bench. Three pieces:
//
//   - `HCP_SPAN("place")` opens a scoped wall-clock span. Spans nest; a
//     span's key is its path from the outermost open span, e.g.
//     "flow/place". Identical paths aggregate (count + total wall time).
//   - `count(Counter::PlacerMovesAccepted, n)` bumps a named monotone
//     counter. Counters only ever add, so totals are order-independent.
//   - `observe(Histogram::StaSlackNs, v)` records one observation into a
//     fixed log-bucketed histogram (count/sum/min/max + quantile estimates).
//   - `writeReport(...)` emits a RunReport JSON document with per-span wall
//     times, counter totals, histogram summaries, thread count, seed and
//     design names.
//
// The sibling module support/tracing.hpp additionally records every span
// begin/end as a timeline event when `--trace FILE` / HCP_TRACE is set;
// see that header for the export format.
//
// Zero-cost when disabled: collection is off by default, every entry point
// checks one relaxed atomic flag inline and does nothing else. Enabling
// telemetry observes the pipeline but never perturbs it — no RNG draws, no
// reordering — so flow outputs are bit-identical with telemetry on or off.
//
// Threading: each thread accumulates into a thread-local frame. The
// parallel layer (support/parallel.cpp) gives every pool task its own
// delta frame and merges completed deltas back into the submitting thread's
// frame in task-index order, so the registry contents after a parallel
// region are independent of scheduling — the same guarantee at any thread
// count, including 1. Span paths recorded inside a task are prefixed with
// the submitter's active span path at merge time, exactly as if the task
// body had run inline.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hcp::support::telemetry {

/// Version stamped into every run report as "schema_version". Bump when the
/// report shape changes incompatibly; compare-reports refuses to diff files
/// whose versions it does not understand.
inline constexpr std::uint32_t kReportSchemaVersion = 2;

/// Monotone counters. Extend freely; every counter is reported.
enum class Counter : std::size_t {
  FlowsRun,
  HlsFunctionsSynthesized,
  PlacerMovesProposed,
  PlacerMovesAccepted,
  PlacerMovesRejected,
  PlacerBoxRescans,     ///< incremental net boxes rebuilt after edge shrink
  RouterIterations,
  RouterRipUps,
  RouterOverflowTiles,
  RouterDirtyTiles,     ///< tiles scanned by the dirty-tile overflow sweep
  RouterTilesSettled,   ///< sink-search pops that passed the stale check
  StaArrivalPropagations,
  TraceCellsTraced,
  DatasetSamplesExtracted,
  GbrtBoostingRounds,
  CvFoldsEvaluated,
  FlowCacheHit,         ///< cache entry found, validated and deserialized
  FlowCacheMiss,        ///< no entry on disk for the flow's key
  FlowCacheWrite,       ///< entry written after a recompute
  FlowCacheCorrupt,     ///< malformed/truncated/skewed entry (fell back)
  FlowCacheStoreError,  ///< store failed (open/write/rename); degraded
  FlowCacheLoadError,   ///< entry exists but could not be read; degraded
  FlowCacheDegraded,    ///< 0/1 gauge: any cache I/O failure this process
  FailpointsFired,      ///< injected faults (support/failpoint) that fired
  ServeRequests,        ///< requests admitted by the hcp_serve batch loop
  ServeBatches,         ///< thread-pool batch dispatches in hcp_serve
  ServeErrors,          ///< ok:false responses written by hcp_serve
  ServeRejected,        ///< admission rejections (queue full / oversized)
  ServeCacheHits,       ///< flow requests answered from the flow cache
  MetricsWrites,        ///< periodic metrics snapshots written successfully
  MetricsWriteError,    ///< metrics snapshot writes that failed; degraded
  TraceFlushError,      ///< incremental trace flushes that failed; degraded
  ServeMapRequests,     ///< predict_map requests admitted by hcp_serve
  ShardWrites,          ///< dataset shards written (ml/shards)
  ShardReads,           ///< dataset shards read and fully validated
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name used as the JSON key.
std::string_view counterName(Counter c);

/// Distribution metrics. Where a counter answers "how many", a histogram
/// answers "how are they spread" — the paper's own framing of congestion as
/// a distribution over CLBs (Fig. 5) applied to the pipeline's internals.
enum class Histogram : std::size_t {
  PlacerAcceptedMoveDelta,    ///< cost delta of each accepted annealer move
  RouterOverflowTilesPerIter, ///< overflowed tiles after each rip-up round
  StaSlackNs,                 ///< WNS of each timing analysis
  NetFanout,                  ///< sink count of each generated RTL net
  DatasetLabelPct,            ///< average-congestion label of each sample
  CvFoldMae,                  ///< per-fold mean absolute error
  CvFoldMedae,                ///< per-fold median absolute error
  ServeBatchSize,             ///< work items per hcp_serve batch dispatch
  ServeQueueDepth,            ///< pending requests at each hcp_serve flush
  ServeRequestLatencyMs,      ///< admission-to-serialized latency per request
  ServeQueueWaitMs,           ///< admission-to-execution wait per request
  ServeExecMs,                ///< batch-execution window per request
  ServeSerializeMs,           ///< response serialization time per request
  kCount,
};

inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);

/// Stable snake_case name used as the JSON key.
std::string_view histogramName(Histogram h);

/// Fixed signed-log-bucketed histogram. 65 buckets: 32 negative-magnitude
/// buckets, one zero bucket, 32 positive-magnitude buckets; magnitude bucket
/// b covers |v| in [2^e, 2^(e+1)) for exponents e in [-16, 15], values
/// outside that range clamp into the edge buckets. Everything here merges by
/// plain addition of per-bucket counts (and of partial sums in a fixed
/// order), so merged results are independent of merge *grouping* as long as
/// the merge *order* is fixed — which the task-index-ordered frame merge
/// guarantees.
struct HistStat {
  static constexpr std::size_t kBuckets = 65;
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 15;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;  ///< meaningful only when count > 0
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index for `v` (see class comment). NaN maps to the zero bucket.
  static std::size_t bucketIndex(double v);

  void add(double v);
  void merge(const HistStat& other);

  /// Bucket-resolution estimate of the q-quantile (q in (0, 1]): the upper
  /// edge of the bucket where the cumulative count crosses ceil(q * count),
  /// clamped to [min, max]. 0 when empty. Exact for min/max, ±1 octave for
  /// interior quantiles — deterministic and cheap, which is what a
  /// regression gate needs.
  double percentile(double q) const;
};

namespace detail {

extern std::atomic<bool> gEnabled;

/// Aggregated statistics of one span path.
struct SpanStat {
  std::uint64_t count = 0;   ///< completed spans with this path
  std::uint64_t wallNs = 0;  ///< summed wall time
  std::uint32_t depth = 0;   ///< nesting depth (0 = outermost)
};

/// Per-thread (or per-task) accumulation buffer. Histogram storage is
/// allocated on first observe() so the many short-lived task frames that
/// never record a distribution stay cheap.
struct Frame {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::map<std::string, SpanStat> spans;
  std::unique_ptr<std::array<HistStat, kNumHistograms>> hist;
  std::string path;           ///< '/'-joined names of the open spans
  std::uint32_t depth = 0;    ///< number of open spans
  std::int64_t taskIndex = -1;  ///< pool task index, -1 outside a task
};

Frame& currentFrame();

/// Opens a span on the current frame; returns the previous path length
/// (needed to close it).
std::size_t spanEnter(std::string_view name);
/// Closes the innermost span, recording `elapsedNs` under its full path.
void spanExit(std::size_t prevPathLen, std::uint64_t elapsedNs);

void countSlow(Counter c, std::uint64_t delta);
void observeSlow(Histogram h, double value);
std::uint64_t nowNs();

/// Redirects the calling thread's frame to `slot` for the capture's
/// lifetime. Used by the parallel layer to give each task its own delta.
class TaskCapture {
 public:
  explicit TaskCapture(Frame& slot);
  ~TaskCapture();
  TaskCapture(const TaskCapture&) = delete;
  TaskCapture& operator=(const TaskCapture&) = delete;

 private:
  Frame* prev_;
};

/// Merges a completed task delta into the calling thread's current frame,
/// prefixing span paths with the frame's active span path.
void mergeIntoCurrent(const Frame& delta);

}  // namespace detail

/// True when collection is on. One relaxed atomic load; safe to call from
/// any thread at any time.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Turns collection on/off process-wide. Existing data is kept.
void setEnabled(bool on);

/// Adds `delta` to a counter. No-op (one branch) when disabled.
inline void count(Counter c, std::uint64_t delta = 1) {
  if (enabled() && delta != 0) detail::countSlow(c, delta);
}

/// Records one observation into a histogram. No-op (one branch) when
/// disabled. NaN observations are dropped.
inline void observe(Histogram h, double value) {
  if (enabled()) detail::observeSlow(h, value);
}

/// RAII wall-clock span. Construct via HCP_SPAN; does nothing when
/// telemetry is disabled at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    if (!enabled()) return;
    active_ = true;
    prevPathLen_ = detail::spanEnter(name);
    startNs_ = detail::nowNs();
  }
  ~ScopedSpan() {
    if (active_) detail::spanExit(prevPathLen_, detail::nowNs() - startNs_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  std::size_t prevPathLen_ = 0;
  std::uint64_t startNs_ = 0;
};

/// Point-in-time totals: the global registry plus the calling thread's
/// frame (which is flushed into the registry by the call).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistStat, kNumHistograms> histograms{};
  struct SpanEntry {
    std::string path;
    std::uint32_t depth = 0;
    std::uint64_t count = 0;
    std::uint64_t wallNs = 0;
  };
  std::vector<SpanEntry> spans;  ///< sorted by path

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistStat& histogram(Histogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
  /// The entry for `path`, or nullptr.
  const SpanEntry* span(std::string_view path) const;
};

/// Flushes the calling thread's frame into the registry and returns the
/// accumulated totals. Totals are monotone across snapshots until reset().
Snapshot snapshot();

/// Clears the registry and the calling thread's frame (tests).
void reset();

/// Run metadata recorded alongside the measurements.
struct RunReport {
  std::string tool;                   ///< binary name, e.g. "hcp_cli"
  std::string command;                ///< subcommand, may be empty
  std::vector<std::string> designs;   ///< design names this run touched
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  double totalWallMs = 0.0;           ///< 0 = fill from initReportFromArgs
};

/// Writes the report JSON (meta + `snap`) to `os`.
void writeReport(std::ostream& os, const RunReport& meta,
                 const Snapshot& snap);

/// Snapshots and writes to `path`. Throws hcp::Error if the file cannot be
/// written. If meta.totalWallMs is 0 and initReportFromArgs ran, the elapsed
/// time since that call is filled in.
void writeReportToFile(const std::string& path, RunReport meta);

/// Resolves the report destination: `--report <path>` / `--report=<path>`
/// on the command line, else the HCP_REPORT environment variable. Enables
/// collection and records the start time when a path is found. Returns the
/// path ("" = reporting off). Unrelated arguments are ignored, but a
/// trailing `--report` with no value or an empty `--report=` is a usage
/// error: a message goes to stderr and the process exits with code 2.
std::string initReportFromArgs(int argc, char** argv);

namespace detail {
/// Shared flag-value extraction for the `--report`, `--trace`, `--cache`,
/// `--failpoints` and bench `--threads` readers: returns the value of
/// `--<flag> V` / `--<flag>=V` (last occurrence wins), "" when absent. Exits
/// with a usage error (code 2) when the flag is present with no value.
std::string flagValueOrDie(int argc, char** argv, std::string_view flag);
}  // namespace detail

}  // namespace hcp::support::telemetry

#define HCP_TELEMETRY_CONCAT2(a, b) a##b
#define HCP_TELEMETRY_CONCAT(a, b) HCP_TELEMETRY_CONCAT2(a, b)

/// Opens a wall-clock span covering the rest of the enclosing scope.
#define HCP_SPAN(name)                               \
  ::hcp::support::telemetry::ScopedSpan HCP_TELEMETRY_CONCAT( \
      hcpSpan_, __LINE__)(name)
