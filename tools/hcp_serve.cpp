// hcp_serve: long-running prediction daemon.
//
//   hcp_serve [--model FILE] [options]
//
// Loads the trained predictor once, then answers line-delimited JSON
// requests (see src/serve/protocol.hpp for the wire format) on stdin/stdout
// or, with --socket, on a Unix domain socket — one connection at a time,
// until EOF or a {"op":"shutdown"} request. Feature extraction and flow
// execution are batched across the deterministic thread pool; the flow
// cache (--cache / HCP_CACHE) is the warm backing store.
//
// Options:
//   --model FILE      predictor saved by `hcp_cli train` (optional: without
//                     it, predict requests get per-request errors but flow /
//                     status requests still work)
//   --map-model FILE  congestion-map model saved by `hcp_cli train-map`
//                     (optional: without it, predict_map requests get
//                     per-request errors)
//   --socket PATH     listen on a Unix socket instead of stdin/stdout
//   --max-batch N     work items per thread-pool dispatch (default 8)
//   --queue-depth N   pending requests admitted between flushes (default 64;
//                     beyond it requests get a per-request queue-full error)
//   --max-line-bytes N  reject request lines longer than this (default 1 MiB)
//   --status-every N  print a status line to stderr every N batches
//   --threads N       thread-pool size (default: HCP_THREADS or hardware)
//   --tick-ns N       logical clock: each serving-thread clock read advances
//                     a counter by N ns instead of reading the real clock,
//                     making latency histograms / metrics byte-identical at
//                     any thread count (default 0 = real steady clock)
//   --metrics-out FILE      write a metrics snapshot (FILE as JSON plus a
//                           .prom Prometheus sibling) atomically after flush
//                           windows and at exit
//   --metrics-interval N    snapshot every N flush windows (default 1)
//   --report FILE     write a JSON run report on exit (HCP_REPORT fallback)
//   --trace FILE      write a Chrome trace timeline (HCP_TRACE fallback);
//                     also re-written incrementally at metrics cadence so a
//                     killed daemon leaves a stale-but-usable trace
//   --cache DIR       flow-result cache directory (HCP_CACHE fallback)
//   --failpoints SPEC arm fault injection, e.g. serve.request:1
//                     (HCP_FAILPOINTS fallback)
//
// SIGTERM/SIGINT are routed through a flag (no SA_RESTART): the blocked
// read/accept returns, the loop drains, and the normal at-exit artifact
// writes (report, trace, metrics snapshot) all run.
//
// Per-request failures (malformed JSON, unknown design, injected serve.*
// fault) are answered with {"ok":false,...} and never stop the daemon.
// Exit codes: 0 clean shutdown/EOF, 1 startup error (hcp::Error, e.g. the
// model cannot be loaded), 2 usage error, 3 unexpected internal error,
// 5 the response stream or a requested artifact could not be written.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "serve/fdio.hpp"
#include "serve/server.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/telemetry.hpp"
#include "support/tracing.hpp"

using namespace hcp;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hcp_serve [--model FILE] [--map-model FILE] [--socket PATH]\n"
      "                 [--max-batch N]\n"
      "                 [--queue-depth N] [--max-line-bytes N]\n"
      "                 [--status-every N] [--threads N] [--tick-ns N]\n"
      "                 [--metrics-out FILE] [--metrics-interval N]\n"
      "                 [--report FILE] [--trace FILE] [--cache DIR]\n"
      "                 [--failpoints SPEC]\n");
  return 2;
}

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "hcp_serve: %s\n", message.c_str());
  std::exit(usage());
}

struct Args {
  serve::ServerConfig config;
  std::string socketPath;
  std::uint64_t threads = 0;  ///< 0 = HCP_THREADS / hardware default
};

std::uint64_t parseCount(const std::string& flag, const std::string& value,
                         std::uint64_t minValue) {
  const auto parsed = support::env::parseU64(value);
  if (!parsed || *parsed < minValue)
    usageError(flag + " expects an integer >= " + std::to_string(minValue) +
               ", got '" + value + "'");
  return *parsed;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool hasValue = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      hasValue = true;
    }
    // --report/--trace/--cache/--failpoints were consumed by the init*
    // helpers before parse() ran; skip them (and their value tokens) here.
    if (arg == "--report" || arg == "--trace" || arg == "--cache" ||
        arg == "--failpoints") {
      if (!hasValue) ++i;
      continue;
    }
    auto need = [&]() -> const std::string& {
      if (!hasValue) {
        if (i + 1 >= argc) usageError(arg + " needs a value");
        value = argv[++i];
      }
      return value;
    };
    if (arg == "--model") {
      args.config.modelPath = need();
    } else if (arg == "--map-model") {
      args.config.mapModelPath = need();
    } else if (arg == "--socket") {
      args.socketPath = need();
    } else if (arg == "--max-batch") {
      args.config.maxBatch = static_cast<std::size_t>(parseCount(arg, need(), 1));
    } else if (arg == "--queue-depth") {
      args.config.queueDepth =
          static_cast<std::size_t>(parseCount(arg, need(), 1));
    } else if (arg == "--max-line-bytes") {
      args.config.maxLineBytes =
          static_cast<std::size_t>(parseCount(arg, need(), 1));
    } else if (arg == "--status-every") {
      args.config.statusEveryBatches = parseCount(arg, need(), 1);
    } else if (arg == "--threads") {
      args.threads = parseCount(arg, need(), 1);
    } else if (arg == "--tick-ns") {
      args.config.tickNs = parseCount(arg, need(), 1);
    } else if (arg == "--metrics-out") {
      args.config.metricsOutPath = need();
    } else if (arg == "--metrics-interval") {
      args.config.metricsInterval = parseCount(arg, need(), 1);
    } else {
      usageError("unknown argument '" + arg + "'");
    }
  }
  return args;
}

/// Serves Unix-socket connections one at a time until a shutdown request.
/// Returns false when a response stream failed mid-connection.
bool serveSocket(serve::Server& server, const std::string& path) {
  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0)
    throw Error("socket() failed: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(listenFd);
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listenFd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listenFd, 8) != 0) {
    const int err = errno;
    ::close(listenFd);
    throw Error("cannot listen on " + path + ": " + std::strerror(err));
  }
  std::fprintf(stderr, "[hcp_serve] listening on %s\n", path.c_str());

  bool clean = true;
  while (!server.shutdownRequested() && !support::terminationRequested()) {
    int fd;
    do {
      fd = ::accept(listenFd, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR && !support::terminationRequested());
    if (fd < 0) {
      // SIGTERM/SIGINT interrupting accept() is the clean daemon-stop path;
      // any other accept failure is not.
      clean = support::terminationRequested();
      break;
    }
    serve::FdStream stream(fd);
    // A connection whose response stream died only loses that client; the
    // daemon accepts the next one.
    server.serve(stream.in, stream.out);
    ::close(fd);
  }
  ::close(listenFd);
  ::unlink(path.c_str());
  return clean;
}

int run(int argc, char** argv) {
  // SIGPIPE would otherwise kill the daemon the instant a client hangs up
  // mid-response; ignored, the write fails visibly instead. SIGTERM/SIGINT
  // become a drain-and-flush request instead of an instant kill.
  support::ignoreSigpipe();
  support::installTerminationHandler();
  // Validate HCP_THREADS up front (exit 2 on garbage) — a daemon must not
  // defer its misconfiguration to the first batch.
  support::threadLimit();
  support::failpoint::initFromArgs(argc, argv);
  const std::string reportPath =
      support::telemetry::initReportFromArgs(argc, argv);
  const std::string tracePath =
      support::tracing::initTraceFromArgs(argc, argv);
  support::flowcache::initCacheFromArgs(argc, argv);

  const Args args = parse(argc, argv);
  if (args.threads > 0)
    support::setThreadLimit(static_cast<std::size_t>(args.threads));
  if (!tracePath.empty()) {
    // Incremental flushing: the trace file is rewritten at quiescent points
    // while serving, so a killed daemon leaves a stale file, not none.
    support::tracing::TraceMeta meta;
    meta.tool = "hcp_serve";
    meta.command = "serve";
    support::tracing::configureAutoFlush(tracePath, meta);
  }

  serve::Server server(args.config);  // models load here, once
  std::fprintf(stderr,
               "[hcp_serve] ready (model: %s, map model: %s, %zu thread%s)\n",
               server.hasModel() ? args.config.modelPath.c_str() : "none",
               server.hasMapModel() ? args.config.mapModelPath.c_str()
                                    : "none",
               support::threadLimit(),
               support::threadLimit() == 1 ? "" : "s");

  bool clean;
  if (!args.socketPath.empty()) {
    clean = serveSocket(server, args.socketPath);
  } else {
    clean = server.serve(std::cin, std::cout);
  }

  const auto& stats = server.stats();
  std::fprintf(stderr,
               "[hcp_serve] exiting: served=%llu errors=%llu rejected=%llu "
               "cache_hits=%llu batches=%llu\n",
               static_cast<unsigned long long>(stats.served),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.cacheHits),
               static_cast<unsigned long long>(stats.batches));

  if (!reportPath.empty()) {
    support::telemetry::RunReport meta;
    meta.tool = "hcp_serve";
    meta.command = "serve";
    meta.threads = support::threadLimit();
    support::telemetry::writeReportToFile(reportPath, meta);
    std::fprintf(stderr, "[hcp_serve] run report written to %s\n",
                 reportPath.c_str());
  }
  if (!tracePath.empty()) {
    support::tracing::TraceMeta meta;
    meta.tool = "hcp_serve";
    meta.command = "serve";
    support::tracing::writeChromeTraceToFile(tracePath, meta);
    std::fprintf(stderr, "[hcp_serve] trace timeline written to %s\n",
                 tracePath.c_str());
  }
  // Final snapshot: unlike the periodic ones this reflects the drained
  // daemon (and is the only one a trafficless run ever writes).
  server.writeMetricsNow();

  // Name the stream that died, as every exit-5 message names its path.
  if (!clean)
    throw args.socketPath.empty()
        ? IoError("write to <stdout> failed mid-serve", "<stdout>")
        : IoError("accept on " + args.socketPath + " failed",
                  args.socketPath);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const hcp::IoError& e) {
    std::fprintf(stderr, "artifact write error: %s\n", e.what());
    return 5;
  } catch (const hcp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
