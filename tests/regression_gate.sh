#!/bin/sh
# The run-report regression gate against the checked-in baseline.
#
#   sh regression_gate.sh HCP_CLI BASELINE_REPORT
#
# Checks, in order:
#   - the fixed-seed run the baseline was generated from (train
#     digit_recognition, seed 7, 2 threads) writes a valid run report and
#     a valid trace;
#   - compare-reports finds its counters equal to the baseline's (placer
#     moves and box rescans, router iterations, rip-ups, overflow and dirty
#     tiles, ...) and its wall time within 400% of it: counters are
#     deterministic, so any drift is a real behaviour change, while wall
#     time depends on the machine;
#   - the gate itself rejects a report with one counter perturbed (exit 1),
#     a malformed report (exit 4) and a missing argument (exit 2).
set -u
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
baseline=$(abspath "$2")
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

run train.log "$cli" train model.hcp digit_recognition --seed 7 --threads 2 \
  --report report.json --trace trace.json
run json.log python3 -m json.tool report.json
run json.log python3 -m json.tool trace.json

run compare.log "$cli" compare-reports "$baseline" report.json \
  --require-counters-equal --max-wall-regress 400 \
  --bench-out BENCH_observability.json
run json.log python3 -m json.tool BENCH_observability.json

run perturb.log python3 -c '
import json
d = json.load(open("report.json"))
d["counters"]["placer_moves_accepted"] += 1
json.dump(d, open("perturbed.json", "w"))'
expect_exit 1 "$cli" compare-reports "$baseline" perturbed.json \
  --require-counters-equal
echo '{"oops": true}' > malformed.json
expect_exit 4 "$cli" compare-reports "$baseline" malformed.json
expect_exit 2 "$cli" compare-reports "$baseline"
echo "counters match the baseline; the gate rejects perturbed, malformed" \
  "and missing inputs"
