#include "support/process.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/tracing.hpp"

namespace hcp::support::process {

namespace {

/// The slot of shell flag `name` in `args`, or nullptr when `name` is not a
/// shell flag in `mode`.
std::string* slotOf(ShellArgs& args, Mode mode, std::string_view name) {
  if (name == "failpoints") return &args.failpoints;
  if (mode == Mode::kQuery) return nullptr;
  if (name == "threads") return &args.threads;
  if (name == "report") return &args.report;
  if (name == "trace") return &args.trace;
  if (name == "cache") return &args.cache;
  return nullptr;
}

/// `--threads N` sets the global thread limit; the value must be a whole
/// positive integer.
void applyThreadsFlag(const char* tool, const std::string& value) {
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

}  // namespace

ShellArgs scanArgs(const char* tool, Mode mode, int argc, char** argv) {
  ShellArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    std::string* slot = arg.starts_with("--")
                            ? slotOf(args, mode, arg.substr(2, eq - 2))
                            : nullptr;
    if (slot == nullptr) {
      args.rest.emplace_back(arg);
      continue;
    }
    const std::string flag(arg.substr(0, eq));
    if (eq == std::string_view::npos) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", tool, flag.c_str());
        std::exit(2);
      }
      *slot = argv[++i];
    } else {
      *slot = arg.substr(eq + 1);
    }
    if (slot->empty()) {
      std::fprintf(stderr, "%s: %s expects a non-empty value\n", tool,
                   flag.c_str());
      std::exit(2);
    }
  }
  return args;
}

Session::Session(const char* tool, Mode mode, int argc, char** argv) {
  report_.tool = tool;
  ignoreSigpipe();
  threadLimit();  // a malformed HCP_THREADS exits 2 here, before any work
  ShellArgs shell = scanArgs(tool, mode, argc, argv);
  applyThreadsFlag(tool, shell.threads);
  failpoint::initFromFlag(std::move(shell.failpoints));
  args_ = std::move(shell.rest);
  if (mode == Mode::kQuery) return;
  reportPath_ = telemetry::initReportFromFlag(std::move(shell.report));
  tracePath_ = tracing::initTraceFromFlag(std::move(shell.trace));
  flowcache::initCacheFromFlag(std::move(shell.cache));
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
