#!/bin/sh
# hcp_serve's daemon smoke, driven through the built binaries.
#
#   sh serve_smoke.sh HCP_CLI HCP_SERVE
#
# Checks, in order:
#   - one scripted window replayed cold, then warm through a shared cache:
#     one response line per request, no errors, the warm replay's flows are
#     cache hits, and the two replays are byte-identical once the cached
#     flag is normalised (--tick-ns pins status's uptime_ms to a logical
#     clock whose reads depend only on the request stream);
#   - an injected serve.request fault fails that one request only: every
#     line is answered with valid JSON and the daemon exits 0;
#   - garbage requests (not JSON, an unknown design) get error responses
#     and the daemon keeps serving.
set -u
. "$(dirname "$0")/lib.sh"
cli=$(abspath "$1")
serve=$(abspath "$2")
enter_work_dir

run train.log "$cli" train model.hcp spam_filter --seed 7 --threads 2

cat > requests.jsonl <<'REQ'
{"id":"f1","op":"flow","design":"spam_filter","seed":7}
{"id":"f2","op":"flow","design":"digit_recognition","seed":7}
{"id":"p1","op":"predict","design":"face_detection","top_k":3}
{"id":"s1","op":"status"}
REQ

# Cold and warm replay.
for pass in cold warm; do
  "$serve" --model model.hcp --cache servecache --threads 2 --tick-ns 1000 \
    --report ${pass}_serve.json < requests.jsonl > $pass.out 2> err.txt ||
    fail "$pass replay"
done
[ "$(wc -l < cold.out)" -eq 4 ] || fail "cold replay: $(cat cold.out)"
! grep -q '"ok":false' cold.out || fail "cold replay has errors"
need '"id":"f1".*"cached":false' cold.out
need '"id":"f1".*"cached":true' warm.out
need '"flowcache_degraded":false' cold.out
sed 's/"cached":[a-z]*/"cached":_/' cold.out > cold.norm
sed 's/"cached":[a-z]*/"cached":_/' warm.out > warm.norm
cmp cold.norm warm.norm || fail "warm replay differs beyond the cached flag"
need '"serve_cache_hits": 0' cold_serve.json
need '"serve_cache_hits": 2' warm_serve.json

# An injected per-request fault fails one request, not the daemon.
HCP_FAILPOINTS=serve.request:1 "$serve" --model model.hcp --cache servecache \
  --threads 2 --report faulty_serve.json < requests.jsonl > faulty.out \
  2> err.txt || fail "daemon died on an injected request fault"
[ "$(wc -l < faulty.out)" -eq 4 ] || fail "faulty run: $(cat faulty.out)"
[ "$(grep -c '"ok":false' faulty.out)" -eq 1 ] || fail "want one error"
need '"serve_errors": 1' faulty_serve.json
while IFS= read -r line; do
  printf '%s\n' "$line" > line.json
  python3 -m json.tool line.json > /dev/null 2>&1 ||
    fail "response is not JSON: $line"
done < faulty.out

# Garbage requests get error responses.
printf 'not json\n{"op":"flow","design":"no_such_design","seed":1}\n{"op":"shutdown"}\n' |
  "$serve" --model model.hcp > garbage.out 2> err.txt ||
  fail "daemon died on garbage requests"
[ "$(wc -l < garbage.out)" -eq 3 ] || fail "garbage run: $(cat garbage.out)"
[ "$(grep -c '"ok":false' garbage.out)" -eq 2 ] || fail "want two errors"
echo "cold/warm replay, fault and garbage contracts hold"
