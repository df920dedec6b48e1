#!/bin/sh
# hcp_cli's exit-code contract for reports, bad input and dead streams.
#
#   sh cli_exit_codes.sh HCP_CLI
#
# Checks, in order:
#   - flow --report writes a valid run report that counts accepted placer
#     moves and router iterations;
#   - usage errors exit 2: a non-numeric --seed, an unknown flag, --report
#     without a value, an empty --trace=, and a --topology other than
#     tilelinear|conv;
#   - a truncated model exits 1;
#   - a malformed HCP_THREADS (garbage, 4abc, 0) exits 2, even for a
#     subcommand that never threads, while an empty one means the default;
#   - a reader hanging up is exit 0 or 5, never a signal death, and a write
#     to a full stdout exits 5 with the stream named <stdout>.
set -u
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "FAIL: $*"
  cat err.txt 2> /dev/null
  exit 1
}
# run LOG CMD...: runs CMD with both streams in LOG and requires exit 0.
run() {
  log=$1
  shift
  "$@" > "$log" 2>&1 || { cat "$log"; fail "$*"; }
}
# expect_exit CODE CMD...: runs CMD with stderr in err.txt and requires CODE.
expect_exit() {
  want=$1
  shift
  "$@" > /dev/null 2> err.txt
  got=$?
  [ "$got" -eq "$want" ] || fail "exit $got, want $want: $*"
}
need() { grep -q "$1" "$2" || fail "no '$1' in $2"; }

# A flow run report.
run flow.log "$cli" flow face_detection --report report.json
run json.log python3 -m json.tool report.json
need '"placer_moves_accepted": [1-9]' report.json
need '"router_iterations": [1-9]' report.json

# Usage errors and a corrupt model.
expect_exit 2 "$cli" flow face_detection --seed abc
expect_exit 2 "$cli" flow face_detection --bogus-flag
expect_exit 2 "$cli" flow face_detection --report
expect_exit 2 "$cli" flow face_detection --trace=
expect_exit 2 "$cli" train-map m.hcp spam_filter --topology lattice
need 'topology' err.txt
[ ! -e m.hcp ] || fail "rejected train-map wrote m.hcp"
run train.log "$cli" train model.hcp spam_filter
head -c 100 model.hcp > truncated.hcp
expect_exit 1 "$cli" predict truncated.hcp face_detection

# HCP_THREADS is parsed strictly: garbage is not "all cores", 4abc not 4.
expect_exit 2 env HCP_THREADS=garbage "$cli" list
expect_exit 2 env HCP_THREADS=4abc "$cli" flow face_detection
expect_exit 2 env HCP_THREADS=0 "$cli" flow face_detection
run list.log env HCP_THREADS= "$cli" list

# A dead stdout is an artifact/IO error (exit 5), not a SIGPIPE kill.
{ "$cli" list; echo $? > code.txt; } | head -c 1 > /dev/null
code=$(cat code.txt)
[ "$code" -eq 0 ] || [ "$code" -eq 5 ] || fail "list into a closed pipe: exit $code"
"$cli" flow face_detection > /dev/full 2> err.txt
code=$?
[ "$code" -eq 5 ] || fail "flow into /dev/full: exit $code"
need '<stdout>' err.txt
echo "reports, usage errors, corrupt models, thread counts and dead" \
  "streams exit as the contract says"
