// Trace-event timelines: where the aggregate spans of support/telemetry say
// *how much* time a stage took, this sink says *when and on which thread* —
// the per-run timeline a Perfetto / chrome://tracing flame view needs.
//
// Every span begin/end (see HCP_SPAN) is additionally recorded here as a
// timestamped event when tracing is enabled. Events carry the recording
// thread's stable id, the pool task index in flight (-1 outside a task) and
// the span's task-local path. Each thread writes into its own bounded
// buffer with no locking on the hot path; once a buffer is full, further
// events on that thread are dropped and counted (drop-newest: the retained
// prefix stays a well-formed timeline). `writeChromeTrace` exports
// everything as Chrome trace-event JSON ("B"/"E" duration events inside a
// {"traceEvents": [...], "otherData": {...}} object), which both
// chrome://tracing and https://ui.perfetto.dev load directly.
//
// Tracing is a *diagnostic* channel: timestamps and thread assignment vary
// run to run, so trace files are not expected to be byte-identical across
// runs or thread counts — unlike run reports, which are. Enabling tracing
// never perturbs flow results: spans observe, they do not steer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hcp::support::tracing {

/// Default per-thread event capacity (begin + end are separate events).
inline constexpr std::size_t kDefaultBufferCapacity = 1 << 16;

/// True when trace collection is on. One relaxed atomic load.
bool enabled();

/// Turns trace collection on/off process-wide. Enabling records the trace
/// epoch (timestamps in the export are relative to it).
void setEnabled(bool on);

/// Caps each thread's event buffer (applies to buffers created after the
/// call; intended for tests and for HCP_TRACE_BUFFER_EVENTS).
void setBufferCapacity(std::size_t events);

/// Records a span begin/end event on the calling thread's buffer. Called by
/// the telemetry span machinery; `path` is the task-local span path and
/// `taskIndex` the pool task in flight (-1 outside a task).
void recordBegin(std::string_view path, std::int64_t taskIndex);
void recordEnd(std::string_view path, std::int64_t taskIndex);

/// Records a *complete* event ("X" phase): a span whose begin and end are
/// known at record time, with an optional correlation id exported as
/// `args.request`. This is how hcp_serve emits per-request span trees —
/// queue wait and serialization phases only exist in hindsight, once the
/// request is answered, and the correlation id is what lets a Perfetto
/// query stitch one request's phases back together across the timeline.
/// `startNs` is an absolute steady-clock timestamp (same clock as the
/// begin/end events); `durNs` the span length.
void recordComplete(std::string_view path, std::uint64_t startNs,
                    std::uint64_t durNs, std::string_view correlation);

/// Total events dropped because a thread buffer was full.
std::uint64_t droppedEvents();

/// Drops all recorded events and the drop counter (tests). Buffers of live
/// threads are kept registered.
void reset();

/// Metadata embedded in the exported trace ("otherData" section).
struct TraceMeta {
  std::string tool;     ///< binary name, e.g. "hcp_cli"
  std::string command;  ///< subcommand, may be empty
};

/// Writes every thread's recorded events as Chrome trace-event JSON.
void writeChromeTrace(std::ostream& os, const TraceMeta& meta);

/// As above, to `path`. Throws hcp::Error if the file cannot be written.
void writeChromeTraceToFile(const std::string& path, const TraceMeta& meta);

/// Arms incremental flushing: autoFlush() will rewrite `path` (atomically,
/// via CheckedFileWriter) with everything recorded so far. Long-running
/// daemons call autoFlush() at quiescent points so a killed process leaves
/// a usable — merely stale — trace file instead of an absent one.
void configureAutoFlush(std::string path, TraceMeta meta);

/// Rewrites the configured auto-flush file. No-op (returns true) when
/// configureAutoFlush has not run or tracing is off. Returns false instead
/// of throwing on I/O failure — a failed periodic flush must not take the
/// caller down; the final at-exit write still fails loudly. Must be called
/// while recording threads are quiescent (between pool batches), the same
/// contract as writeChromeTrace.
bool autoFlush();

/// Resolves the trace destination: `flagValue` (the `--trace` value the
/// process shell scanned; "" = not given), else the HCP_TRACE environment
/// variable. When a path is found, applies HCP_TRACE_BUFFER_EVENTS (exit 2
/// when malformed) and enables tracing plus telemetry collection — spans
/// must be live for events to exist. Returns the path ("" = tracing off).
std::string initTraceFromFlag(std::string flagValue);

}  // namespace hcp::support::tracing
