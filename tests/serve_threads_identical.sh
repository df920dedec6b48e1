#!/bin/sh
# Serial and parallel serving are byte-identical.
#
#   sh serve_threads_identical.sh HCP_CLI HCP_SERVE
#
# Trains a predictor, then answers one scripted request window with hcp_serve
# at 1 and at 2 threads, each against a fresh flow cache. The responses must
# match byte for byte and the run reports must hold equal counter totals and
# histogram counts. --tick-ns pins the status op's uptime to a logical clock.
# The face_detection predict asks for top_k 3 while eight regions tie on
# their mean, so it also pins the tie order: (function, line) ascending.
set -eu
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
serve=$(abspath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$cli" train model.hcp spam_filter --seed 7 --threads 2 > train.log 2>&1 ||
  { cat train.log; exit 1; }
cat > requests.jsonl <<'REQUESTS'
{"id":"f1","op":"flow","design":"spam_filter","seed":7}
{"id":"f2","op":"flow","design":"digit_recognition","seed":7}
{"id":"p1","op":"predict","design":"face_detection","top_k":3}
{"id":"s1","op":"status"}
REQUESTS
for t in 1 2; do
  "$serve" --model model.hcp --cache "cache_t$t" --threads "$t" \
    --tick-ns 1000 --report "serve_t$t.json" < requests.jsonl > "t$t.out" \
    2> "serve_t$t.log" || { cat "serve_t$t.log"; exit 1; }
done
[ "$(wc -l < t1.out)" -eq 4 ] || { cat t1.out; exit 1; }
if grep -q '"ok":false' t1.out; then cat t1.out; exit 1; fi
grep -q '"id":"p1".*"function":"stage_0","line":11.*"function":"stage_1","line":11.*"function":"stage_2","line":11' t1.out ||
  { echo "p1 tie group not in key order:"; grep '"id":"p1"' t1.out; exit 1; }
cmp t1.out t2.out
"$cli" compare-reports serve_t1.json serve_t2.json --require-counters-equal
echo "serve output identical at 1 and 2 threads"
