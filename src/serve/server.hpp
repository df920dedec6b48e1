// The hcp_serve batch loop: admission, bounded queueing, deduped parallel
// execution, in-order response writing.
//
// Lifecycle: construct once (the predictor model loads here, paid a single
// time per daemon), then serve(in, out) until EOF or a shutdown request.
// Admission is serial and cheap — parse, validate, queue. A blank line (or
// EOF / shutdown) flushes: pending work is deduplicated by its canonical
// work key, executed through the deterministic thread pool in maxBatch-sized
// chunks, and answered strictly in request order. Because the pool merges
// telemetry frames in task-index order and every response body is a pure
// function of the request, the byte stream out — and the run report — are
// identical at any thread count.
//
// Failure contract: nothing a client sends, and no failure while serving a
// single request (unknown design, cache miss on a keyed flow, injected
// serve.* fault, any hcp::Error or std::exception from the flow) can take
// the daemon down. Each such failure becomes one {"ok":false,...} response
// and the loop keeps going. Only I/O failure on the response stream itself
// ends serve() — there is no one left to answer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "fpga/device.hpp"
#include "serve/protocol.hpp"
#include "serve/request_context.hpp"
#include "support/metrics_export.hpp"

namespace hcp::core {
class CongestionPredictor;
}

namespace hcp::serve {

struct ServerConfig {
  std::string modelPath;  ///< predictor to preload ("" = flow/status only)
  std::size_t maxBatch = 8;        ///< work items per pool dispatch
  std::size_t queueDepth = 64;     ///< pending work items between flushes
  std::size_t maxLineBytes = 1 << 20;  ///< request line size limit
  std::uint64_t statusEveryBatches = 0;  ///< stderr status cadence (0 = off)
  /// Logical clock step. 0 (production default) = real steady clock. When
  /// non-zero, every serving-thread clock read returns the previous read
  /// plus tickNs: since only the serving thread reads this clock and its
  /// read sequence depends only on the request stream, all latency
  /// histograms — and therefore the metrics op and snapshot — are
  /// byte-identical at any thread count.
  std::uint64_t tickNs = 0;
  std::string metricsOutPath;  ///< periodic JSON/Prometheus snapshot ("" = off)
  std::uint64_t metricsInterval = 1;  ///< snapshot cadence, in flush windows
};

/// Monotone since construction; mirrored by the serve_* report counters and
/// the `status` op.
struct ServerStats {
  std::uint64_t admitted = 0;   ///< requests accepted into the queue
  std::uint64_t served = 0;     ///< response lines written
  std::uint64_t errors = 0;     ///< ok:false responses among `served`
  std::uint64_t rejected = 0;   ///< queue-full / oversized-line rejections
  std::uint64_t batches = 0;    ///< pool dispatches
  std::uint64_t cacheHits = 0;  ///< flow responses replayed from the cache
  std::size_t queuePeak = 0;    ///< max pending work items at a flush
};

class Server {
 public:
  /// Loads the model named by `config.modelPath` (throws hcp::Error if it
  /// cannot be loaded — a daemon that cannot answer must not start).
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the admission/flush loop until EOF or shutdown. Returns true on a
  /// clean exit; false when the response stream failed mid-serve.
  bool serve(std::istream& in, std::ostream& out);

  const ServerStats& stats() const { return stats_; }
  bool hasModel() const { return predictor_ != nullptr; }
  /// True once a shutdown request was served — the Unix-socket accept loop
  /// uses this to tell "client hung up, accept the next one" from "daemon
  /// was asked to stop".
  bool shutdownRequested() const { return shutdown_; }

  /// Writes the metrics snapshot (JSON + Prometheus sibling) now, regardless
  /// of cadence. No-op when metricsOutPath is empty. The at-exit call.
  void writeMetricsNow();

 private:
  struct Pending {
    Request request;
    RequestContext ctx;
    std::string body;   ///< resolved response body; "" = needs execution
    bool isError = false;
    bool needsWork() const { return body.empty(); }
  };

  struct WorkResult {
    std::string body;
    bool fromCache = false;
    bool isError = false;
  };

  void admit(std::string_view line);
  bool flushPending(std::ostream& out);
  WorkResult executeWork(const Request& r) const;
  WorkResult executePredict(const Request& r) const;
  WorkResult executeFlow(const Request& r) const;
  WorkResult executePredictMap(const Request& r) const;
  std::string statusBody() const;
  std::string metricsBody() const;
  support::metrics::Gauges gauges() const;
  void maybeStatusLine();
  /// Serving-thread clock: real steady clock, or the logical tick clock
  /// when config_.tickNs != 0. Must never be called from a pool worker —
  /// that would make the read sequence depend on the thread count.
  std::uint64_t nowNs();
  double uptimeMs() const;

  ServerConfig config_;
  fpga::Device device_;
  std::unique_ptr<core::CongestionPredictor> predictor_;
  std::vector<Pending> pending_;
  std::size_t pendingWork_ = 0;  ///< queue occupancy (needsWork items)
  bool shutdown_ = false;
  ServerStats stats_;
  std::uint64_t clockNs_ = 0;   ///< last tick-clock reading (tick mode)
  std::uint64_t startNs_ = 0;   ///< clock at construction (uptime origin)
  std::uint64_t lastNowNs_ = 0;  ///< last serving-thread clock reading
  std::uint64_t windows_ = 0;   ///< completed flush windows (snapshot cadence)
  std::uint64_t seq_ = 0;       ///< admission ordinal (ids for id-less reqs)
  bool metricsErrorLogged_ = false;  ///< log the first write failure only
};

}  // namespace hcp::serve
