// The process shell every hcp binary runs inside.
//
// A binary's callers rely on its process contract: the flags and HCP_*
// fallbacks it accepts, the run artifacts it writes and what its exit code
// means. runMain() holds that contract once:
//
//   1. ignores SIGPIPE, so a reader hanging up fails a write visibly
//      instead of killing the process, and resolves HCP_THREADS, so a
//      malformed value exits 2 before any work runs;
//   2. scans argv once for the shell's flags (scanArgs), then applies
//      `--threads N` (a whole positive integer, else exit 2);
//   3. arms fault injection (`--failpoints SPEC` / HCP_FAILPOINTS), the run
//      report (`--report FILE` / HCP_REPORT), the trace timeline
//      (`--trace FILE` / HCP_TRACE) and the flow cache (`--cache DIR` /
//      HCP_CACHE) through their init*FromFlag helpers;
//   4. runs the body, which fills in session.report() (command, designs,
//      seed) and parses session.args(): the arguments left once the
//      shell's own flags are taken out;
//   5. when the body returns 0, writes the report and the trace;
//   6. maps an escaping exception to the exit code: hcp::IoError → 5 (a
//      requested artifact or stream could not be written), hcp::Error → 1,
//      any other std::exception → 3, printed as `<tool>: <kind>: <what>`.
//
// A malformed shell flag is a usage error: `<tool>: --X expects ...` on
// stderr and exit 2. README "Process contract" and DESIGN.md §14 state the
// contract for every binary.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/telemetry.hpp"

namespace hcp::support::process {

/// kRun takes every shell flag. kQuery (hcp_cli's `list` and
/// `compare-reports`, which inspect rather than run) takes only
/// `--failpoints`: no report, trace or cache is armed or written, and
/// `--threads`/`--report`/`--trace`/`--cache` stay in args() for the body.
enum class Mode { kRun, kQuery };

/// What one scan of argv found: each shell flag's value ("" when absent;
/// the last occurrence wins) and argv[1..] without the flags and their
/// values. In kQuery mode only `--failpoints` is a shell flag.
struct ShellArgs {
  std::string threads;
  std::string failpoints;
  std::string report;
  std::string trace;
  std::string cache;
  std::vector<std::string> rest;
};

/// Scans argv[1..] once for `--<flag> V` and `--<flag>=V`. A flag with no
/// value token prints `<tool>: --<flag> expects a value`, an empty value
/// `<tool>: --<flag> expects a non-empty value`; both exit 2.
ShellArgs scanArgs(const char* tool, Mode mode, int argc, char** argv);

/// One binary run: the armed artifacts, the report metadata the body fills
/// in, and the arguments the body still has to parse. Constructed by
/// runMain.
class Session {
 public:
  Session(const char* tool, Mode mode, int argc, char** argv);

  /// argv[1..] without the shell's flags and their values.
  const std::vector<std::string>& args() const { return args_; }

  /// Report metadata; tool is preset, threads is filled in at write time.
  telemetry::RunReport& report() { return report_; }

  /// The trace destination ("" = tracing off).
  const std::string& tracePath() const { return tracePath_; }

  /// Writes the requested report and trace, once: later calls do nothing.
  /// runMain calls it after a body returns 0; a body that must write them
  /// earlier (before a final stream check) calls it itself. Throws
  /// hcp::IoError when an artifact cannot be written.
  void finish();

 private:
  telemetry::RunReport report_;
  std::string reportPath_;
  std::string tracePath_;
  std::vector<std::string> args_;
  bool finished_ = false;
};

/// Runs `body` and maps the exception that escapes it to an exit code
/// (IoError 5, Error 1, other std::exception 3); otherwise returns the
/// body's code.
int exitCodeOf(const char* tool, const std::function<int()>& body);

/// The main() of every hcp binary: steps 1-6 above. Returns the exit code.
int runMain(const char* tool, int argc, char** argv,
            const std::function<int(Session&)>& body, Mode mode = Mode::kRun);

}  // namespace hcp::support::process
