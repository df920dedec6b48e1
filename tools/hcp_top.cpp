// hcp_top: terminal dashboard for a running hcp_serve daemon.
//
//   hcp_top --socket PATH [--watch SECONDS [--count N]] [--raw]
//
// Connects to the daemon's Unix socket, issues one `metrics` request, and
// renders the scrape — QPS, queue depth, cache hit rate, and the
// p50/p90/p99/max latency percentiles of every live histogram. One-shot by
// default; --watch re-scrapes every SECONDS seconds (--count bounds the
// number of scrapes, 0 = until SIGINT/SIGTERM). --raw prints the daemon's
// JSON response line verbatim instead of the table, which is what scripts
// and the CI smoke job want.
//
// Exit codes: 0 success, 1 the daemon is unreachable or answered garbage,
// 2 usage error, 3 unexpected internal error (the process shell's mapping,
// support/process.hpp; hcp_top takes none of the shell's flags).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "serve/top.hpp"
#include "support/env.hpp"
#include "support/process.hpp"
#include "support/signals.hpp"

using namespace hcp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hcp_top --socket PATH [--watch SECONDS [--count N]] "
               "[--raw]\n");
  return 2;
}

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "hcp_top: %s\n", message.c_str());
  std::exit(usage());
}

using support::env::parseCount;

struct Args {
  std::string socketPath;
  std::uint64_t watchSeconds = 0;  ///< 0 = one-shot
  std::uint64_t count = 0;         ///< watch-mode scrape limit (0 = no limit)
  bool raw = false;
};

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
    auto need = [&]() -> const std::string& {
      if (!hasValue) {
        if (i + 1 >= argc) usageError(arg + " expects a value");
        value = argv[++i];
      }
      return value;
    };
    if (arg == "--socket") {
      args.socketPath = need();
    } else if (arg == "--watch") {
      args.watchSeconds = parseCount(arg, need(), 1, usageError);
    } else if (arg == "--count") {
      args.count = parseCount(arg, need(), 1, usageError);
    } else if (arg == "--raw") {
      if (hasValue) usageError("--raw takes no value");
      args.raw = true;
    } else {
      usageError("unknown argument '" + arg + "'");
    }
  }
  if (args.socketPath.empty()) usageError("--socket PATH is required");
  if (args.count != 0 && args.watchSeconds == 0)
    usageError("--count only makes sense with --watch");
  return args;
}

int run(int argc, char** argv) {
  support::ignoreSigpipe();
  support::installTerminationHandler();
  const Args args = parse(argc, argv);

  std::uint64_t scrapes = 0;
  for (;;) {
    const std::string line = serve::top::scrapeOnce(args.socketPath);
    if (args.raw) {
      std::printf("%s\n", line.c_str());
    } else {
      const serve::top::Scrape s = serve::top::parseMetricsResponse(line);
      if (args.watchSeconds != 0 && scrapes != 0) std::printf("\n");
      std::fputs(serve::top::renderDashboard(s).c_str(), stdout);
    }
    std::fflush(stdout);
    ++scrapes;
    if (args.watchSeconds == 0) break;
    if (args.count != 0 && scrapes >= args.count) break;
    // Sleep in short slices so SIGTERM/SIGINT ends the watch promptly.
    for (std::uint64_t waited = 0;
         waited < args.watchSeconds * 10 && !support::terminationRequested();
         ++waited)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (support::terminationRequested()) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return support::process::exitCodeOf("hcp_top",
                                      [&] { return run(argc, argv); });
}
