#!/bin/sh
# noise_floor's report and its --reference round trip.
#
#   sh noise_floor_smoke.sh NOISE_FLOOR
#
# Runs the bench at two flow seeds and requires BENCH_noise.json to be valid
# JSON, then runs it again against the first run's per-op means. Against its
# own K-seed means each seed's error is exactly (K-1)/K of its leave-one-out
# error, so at K = 2 every design's cross MAE (op and line level, V and H)
# must equal half its reported floor, over all of its ops. Every design and
# the mean also carry the routed-map floor and RUDY's score against the
# routed map: top-decile IoUs in [0, 1] and non-negative MAEs, with a
# positive map floor MAE (two placements never route identically).
set -u
. "$(dirname "$0")/lib.sh"
bench=$(abspath "$1")
enter_work_dir

run first.log "$bench" --seeds 2
python3 -m json.tool BENCH_noise.json > /dev/null 2> err.txt ||
  fail "BENCH_noise.json is not valid JSON"
[ -s noise_floor_labels.csv ] || fail "no per-op means written"
mv noise_floor_labels.csv reference.csv
run second.log "$bench" --seeds 2 --reference reference.csv
python3 -m json.tool BENCH_noise.json > /dev/null 2> err.txt ||
  fail "BENCH_noise.json with --reference is not valid JSON"
python3 - BENCH_noise.json > err.txt 2>&1 <<'PY' || fail "self-reference"
import json, sys
report = json.load(open(sys.argv[1]))
for d in report["designs"]:
    assert d["matched_ops"] == d["ops"], d["design"]
    for level in ("op", "line"):
        for axis in ("v", "h"):
            floor = d[f"{level}_floor_{axis}"]
            cross = d[f"{level}_cross_{axis}"]
            assert floor > 0, (d["design"], level, axis)
            assert abs(cross - floor / 2) <= 1e-9 * floor, \
                (d["design"], level, axis, cross, floor)
for d in report["designs"] + [report["mean"]]:
    for axis in ("v", "h"):
        for row in ("map_floor", "rudy"):
            assert 0 <= d[f"{row}_iou_{axis}"] <= 1, (d, row, axis)
            assert d[f"{row}_mae_{axis}"] >= 0, (d, row, axis)
        assert d[f"map_floor_mae_{axis}"] > 0, (d, axis)
PY
echo "noise_floor writes valid JSON and its self-reference cross MAE is" \
  "half its floor at two seeds"
