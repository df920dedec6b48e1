#include "support/process.hpp"

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string_view>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/tracing.hpp"

namespace hcp::support::process {

namespace {

/// `--threads N` / `--threads=N` (last occurrence wins) sets the global
/// thread limit; the value must be a whole positive integer.
void applyThreadsFlag(const char* tool, int argc, char** argv) {
  const std::string value =
      telemetry::detail::flagValueOrDie(argc, argv, "threads");
  if (value.empty()) return;
  const auto n = env::parseU64(value);
  if (!n || *n == 0) {
    std::fprintf(stderr,
                 "%s: --threads expects a positive integer, got '%s'\n", tool,
                 value.c_str());
    std::exit(2);
  }
  setThreadLimit(static_cast<std::size_t>(*n));
}

/// argv[1..] without each `--<flag> V` / `--<flag>=V` in `flags`. A bare
/// flag always has its value token: flagValueOrDie exits 2 otherwise.
std::vector<std::string> argsWithout(
    int argc, char** argv, std::initializer_list<std::string_view> flags) {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool taken = false;
    for (const std::string_view flag : flags) {
      if (arg.substr(0, 2) != "--" || arg.substr(2, flag.size()) != flag)
        continue;
      const std::string_view tail = arg.substr(2 + flag.size());
      if (tail.empty()) ++i;  // `--flag V`: the value token goes too
      taken = tail.empty() || tail[0] == '=';
      if (taken) break;       // else a longer name, e.g. --traces
    }
    if (!taken) rest.emplace_back(arg);
  }
  return rest;
}

}  // namespace

Session::Session(const char* tool, Mode mode, int argc, char** argv) {
  report_.tool = tool;
  ignoreSigpipe();
  threadLimit();  // a malformed HCP_THREADS exits 2 here, before any work
  if (mode == Mode::kRun) applyThreadsFlag(tool, argc, argv);
  failpoint::initFromArgs(argc, argv);
  if (mode == Mode::kQuery) {
    args_ = argsWithout(argc, argv, {"failpoints"});
    return;
  }
  reportPath_ = telemetry::initReportFromArgs(argc, argv);
  tracePath_ = tracing::initTraceFromArgs(argc, argv);
  flowcache::initCacheFromArgs(argc, argv);
  args_ = argsWithout(argc, argv,
                      {"threads", "failpoints", "report", "trace", "cache"});
}

void Session::finish() {
  if (finished_) return;
  finished_ = true;
  if (!reportPath_.empty()) {
    report_.threads = threadLimit();
    telemetry::writeReportToFile(reportPath_, report_);
    std::fprintf(stderr, "[hcp] run report written to %s\n",
                 reportPath_.c_str());
  }
  if (!tracePath_.empty()) {
    tracing::writeChromeTraceToFile(tracePath_,
                                    {report_.tool, report_.command});
    std::fprintf(stderr, "[hcp] trace timeline written to %s\n",
                 tracePath_.c_str());
  }
}

int exitCodeOf(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const IoError& e) {
    // The work may have succeeded, but an artifact or stream the caller
    // asked for was not produced; no partial file exists under its name.
    std::fprintf(stderr, "%s: artifact write error: %s\n", tool, e.what());
    return 5;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return 1;
  } catch (const std::exception& e) {
    // bad_alloc, stream failures, ...: not the library's own error type.
    std::fprintf(stderr, "%s: internal error: %s\n", tool, e.what());
    return 3;
  }
}

int runMain(const char* tool, int argc, char** argv,
            const std::function<int(Session&)>& body, Mode mode) {
  return exitCodeOf(tool, [&] {
    Session session(tool, mode, argc, argv);
    const int code = body(session);
    if (code == 0) session.finish();
    return code;
  });
}

}  // namespace hcp::support::process
