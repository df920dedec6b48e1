// Shared pieces of the perfbench program: options, the result record every
// workload fills, sample statistics and the in-memory span tracer.
//
// The tracer records spans from the benchmark's own code around each call
// into a program layer (name, start, end, parent, request id, thread). Spans
// stay in memory and are written as Chrome trace-event JSON when the run
// ends. Self time of a span is its duration minus the union of its
// children's intervals; children of a span opened with `lanes > 1` ran on
// that many pool threads, so their time is divided by `lanes` when it is
// attributed to the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 2;
};

/// Where runs write traces and scratch files, relative to the working
/// directory (the repository root).
inline const std::string kOutDir = ".bench_out";

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The flow/placer seed a workload seed selects for round `round` of a run.
/// Kept below 2^31 so it survives the serve protocol's JSON numbers exactly.
std::uint64_t flowSeedOf(std::uint64_t workloadSeed, std::uint64_t round = 0);

/// Median and quantiles of a sample (linear interpolation between order
/// statistics; 0 for an empty sample).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced: the operation counts, the output checks,
/// the metrics for the final JSON line and a human-readable report.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t checksFailed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  /// Records one output check; a failure is printed and fails the run.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
  void note(const std::string& line) { report.push_back(line); }
  /// Notes a sample's median, quartiles and size.
  void noteSample(const std::string& what, const std::vector<double>& v,
                  const std::string& unit);
  bool correct() const { return checksFailed == 0 && failed == 0; }
};

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string rid;          ///< request id ("" = none)
    std::int64_t parent = -1; ///< index of the parent span, -1 = root
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::size_t lanes = 1;    ///< pool threads its children ran on
    std::size_t thread = 0;   ///< dense id of the recording thread
  };

  /// Opens a span; returns its id (-1 when tracing is off).
  std::int64_t open(std::string name, std::int64_t parent,
                    std::string rid = {}, std::size_t lanes = 1);
  void close(std::int64_t id);

  void setEnabled(bool on) { enabled_ = on; }

  /// Spans recorded so far (call only while no span is being recorded).
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON.
  void writeChromeTrace(const std::string& path) const;

  /// RAII span. `id()` is the parent id to pass to child spans.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::int64_t parent,
          std::string rid = {}, std::size_t lanes = 1)
        : t_(t), id_(t.open(std::move(name), parent, std::move(rid), lanes)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer& t_;
    std::int64_t id_;
  };

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_ and threadIds_
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> threadIds_;
};

/// Per-name totals over one traced pass (the subtree of `root`).
struct LayerTotals {
  std::size_t calls = 0;
  double selfMs = 0.0;      ///< summed self time (thread time)
  double attributedMs = 0.0;  ///< self time divided by the lanes it ran on
};

struct PassProfile {
  double passMs = 0.0;      ///< root span duration
  double waitingMs = 0.0;   ///< idle pool-thread time / lanes
  std::map<std::string, LayerTotals> layers;  ///< includes the root's name
  std::map<std::string, std::vector<double>> durationsMs;  ///< per call
  /// (attributed self time of every span + waiting) / pass time.
  double accountedShare() const;
};

/// Profiles the subtree of span `root` (spans with larger ids only).
PassProfile profilePass(const Tracer& tracer, std::int64_t root);

/// Aggregates several traced passes: per-layer medians and a report.
class TraceSummary {
 public:
  void add(PassProfile p) { passes_.push_back(std::move(p)); }
  std::size_t passes() const { return passes_.size(); }
  /// Median over passes of a layer's self time per pass (thread time, ms).
  double selfMs(const std::string& layer) const;
  /// Median over passes of a layer's self time per call (thread time, ms).
  double perCallMs(const std::string& layer) const;
  /// Median over passes of a layer's wall-attributed self time / pass time.
  double share(const std::string& layer) const;
  /// Median over passes of a layer's call count.
  double calls(const std::string& layer) const;
  /// Median over all calls of a layer's span duration (ms).
  double callMs(const std::string& layer) const;
  double passMs() const;
  double waitingMs() const;
  /// Appends the per-layer self-time/share table and the accounting line.
  void report(Result& r, double untracedPassMs) const;

 private:
  std::vector<PassProfile> passes_;
};

}  // namespace perfbench
