#!/bin/sh
# Congestion-map model contracts, driven through the built binaries.
#
#   sh mapnet_smoke.sh HCP_CLI HCP_SERVE MAPNET_ACCURACY
#
# Checks, in order:
#   - train-map writes a byte-identical model, and a run report with equal
#     counters, at 1 and at 2 threads;
#   - predict-map writes a byte-identical map artifact and stdout at 1 and
#     at 2 threads;
#   - an injected mapout.write fault is exit 5 naming the map path, an
#     injected mapmodel.rename fault is exit 5, and neither leaves a partial
#     or temp file behind;
#   - a version-1 model is exit 1 and the error names the file;
#   - hcp_serve --map-model answers predict_map, reports map_model in
#     status and counts the request in its run report;
#   - the held-out accuracy gate: mapnet_accuracy scores each topology
#     leave-one-design-out and exits 1 unless conv's mean held-out hotspot
#     IoU beats tilelinear's.
set -u
. "$(dirname "$0")/lib.sh"
cli=$(abspath "$1")
serve=$(abspath "$2")
bench=$(abspath "$3")
enter_work_dir

# Thread-count invariance of the model, its report counters and its maps.
for t in 1 2; do
  run train_t$t.log "$cli" train-map map_t$t.hcp spam_filter \
    digit_recognition --seed 7 --threads $t --epochs 8 --report mapnet_t$t.json
done
cmp map_t1.hcp map_t2.hcp || fail "map model differs across thread counts"
run compare.log "$cli" compare-reports mapnet_t1.json mapnet_t2.json \
  --require-counters-equal --max-wall-regress 400
for t in 1 2; do
  "$cli" predict-map map_t1.hcp face_detection --threads $t \
    --map-out pred_t$t.map > pred_t$t.out 2> err.txt ||
    fail "predict-map at $t threads"
done
cmp pred_t1.map pred_t2.map || fail "map artifact differs across threads"
cmp pred_t1.out pred_t2.out || fail "predict-map stdout differs"

# Map-artifact write failures: exit 5, the path named, no litter.
expect_exit 5 "$cli" predict-map map_t1.hcp face_detection \
  --map-out lost.map --failpoints mapout.write:1
grep -q 'artifact write error' err.txt || fail "no artifact write error"
grep -q 'lost.map' err.txt || fail "error does not name lost.map"
[ -z "$(ls lost.map* 2> /dev/null)" ] || fail "partial map left behind"
HCP_FAILPOINTS=mapmodel.rename:1 expect_exit 5 "$cli" train-map doomed.hcp \
  spam_filter --epochs 2
[ -z "$(ls doomed.hcp* 2> /dev/null)" ] || fail "partial model left behind"

# A model in the retired version-1 format fails loudly, naming the file.
sed '1s/ 2$/ 1/' map_t1.hcp > v1.hcp
expect_exit 1 "$cli" predict-map v1.hcp face_detection
grep -q 'unsupported map-model version 1' err.txt || fail "no version error"
grep -q 'v1.hcp' err.txt || fail "error does not name v1.hcp"

# The daemon serves the map model.
printf '%s\n' '{"id":"m1","op":"predict_map","design":"spam_filter"}' \
  '{"id":"s1","op":"status"}' > requests.jsonl
"$serve" --map-model map_t1.hcp --threads 2 --report serve.json \
  < requests.jsonl > serve.out 2> err.txt || fail "hcp_serve"
grep -q '"id":"m1".*"ok":true.*"op":"predict_map"' serve.out ||
  fail "no predict_map answer: $(cat serve.out)"
grep -q '"map_model":true' serve.out || fail "status lacks map_model"
grep -q '"serve_map_requests": 1' serve.json || fail "request not counted"

# The held-out accuracy gate (the bench exits 1 when conv does not win).
run bench.log "$bench" --threads 2
grep -q '"protocol": "leave-one-design-out"' BENCH_mapnet.json ||
  fail "BENCH_mapnet.json is not the held-out report"
grep 'held-out mean' bench.log
echo "map model contracts hold; conv beats tilelinear on held-out designs"
