#!/bin/sh
# The congestion-map predictor, driven through the built binaries.
#
#   sh map_smoke.sh HCP_CLI HCP_SERVE
#
# Checks, in order:
#   - predict-map writes byte-identical stdout and --map-out artifacts at 1
#     and at 2 threads;
#   - an injected mapout.write fault is exit 5 naming the map path and
#     leaves no partial or temp file behind;
#   - hcp_serve, started without any model, answers predict_map, counts it
#     in serve_map_requests, and the response's v_util is the artifact's
#     vutil row, value for value.
set -u
. "$(dirname "$0")/lib.sh"
cli=$(abspath "$1")
serve=$(abspath "$2")
enter_work_dir

for t in 1 2; do
  "$cli" predict-map spam_filter --threads $t --map-out pred_t$t.map \
    > pred_t$t.out 2> err.txt || fail "predict-map at $t threads"
done
cmp pred_t1.map pred_t2.map || fail "map artifact differs across threads"
cmp pred_t1.out pred_t2.out || fail "predict-map stdout differs"
need '^hcp-map 1$' pred_t1.map
need '^tiles over 100% : ' pred_t1.out

# Map-artifact write failures: exit 5, the path named, no litter.
expect_exit 5 "$cli" predict-map spam_filter --map-out lost.map \
  --failpoints mapout.write:1
need 'artifact write error' err.txt
need 'lost.map' err.txt
[ -z "$(ls lost.map* 2> /dev/null)" ] || fail "partial map left behind"

# The daemon answers predict_map with no model, with the artifact's map.
printf '%s\n' '{"id":"m1","op":"predict_map","design":"spam_filter"}' \
  > requests.jsonl
"$serve" --threads 2 --report serve.json < requests.jsonl > serve.out \
  2> err.txt || fail "hcp_serve"
need '"id":"m1".*"ok":true.*"op":"predict_map"' serve.out
need '"serve_map_requests": 1' serve.json
sed -n 's/.*"v_util":\[\([^]]*\)\].*/\1/p' serve.out | tr ',' ' ' > served.txt
sed -n 's/^vutil [0-9]* //p' pred_t1.map > file.txt
[ -s file.txt ] || fail "no vutil row in the artifact"
cmp served.txt file.txt || fail "served v_util differs from the artifact"
echo "predict-map and predict_map agree at 1 and 2 threads"
