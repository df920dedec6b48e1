#!/bin/sh
# The flow cache memoizes flows, and a failing one degrades to recompute;
# neither ever changes the model.
#
#   sh flowcache_degrade.sh HCP_CLI
#
# Cold and warm: a cold run into an empty cache named by HCP_CACHE (the env
# fallback for --cache) misses, writes and never hits; a warm run of the
# same command hits, proposes no placer move, runs no router iteration,
# records no flow/place or flow/route span and writes the cold run's model
# bytes; a second warm run matches the first's counters exactly; a new seed
# is a new key, so it misses.
#
# Store failure: a cached run whose one cache store is failed by a failpoint
# keeps exit 0 and writes the model of an uncached run; its report counts
# the store error, no cache write and the fired failpoint, and the cache
# directory stays empty. Load failure: a run whose one cache load fails
# recomputes the flow and writes the model of the warm run before it; its
# report counts the load error and no cache hit.
set -eu
. "$(dirname "$0")/lib.sh"
cli=$(abspath "$1")
enter_work_dir

run cold.log env HCP_CACHE=envcache "$cli" train cold.hcp digit_spam --seed 7 \
  --threads 2 --report cold.json
run json.log python3 -m json.tool cold.json
need '"flowcache_miss": 1' cold.json
need '"flowcache_write": 1' cold.json
need '"flowcache_hit": 0' cold.json
run hit.log env HCP_CACHE=envcache "$cli" train hit.hcp digit_spam --seed 7 \
  --threads 2 --report hit.json
cmp cold.hcp hit.hcp
need '"flowcache_hit": 1' hit.json
need '"flowcache_miss": 0' hit.json
need '"placer_moves_proposed": 0' hit.json
need '"router_iterations": 0' hit.json
grep -q '"flow/place"' hit.json && fail "the warm run placed"
grep -q '"flow/route"' hit.json && fail "the warm run routed"
run hit2.log env HCP_CACHE=envcache "$cli" train hit2.hcp digit_spam --seed 7 \
  --threads 2 --report hit2.json
cmp hit.hcp hit2.hcp
run compare.log "$cli" compare-reports hit.json hit2.json \
  --require-counters-equal --max-wall-regress 400
run reseeded.log env HCP_CACHE=envcache "$cli" train reseeded.hcp digit_spam \
  --seed 8 --threads 2 --report reseeded.json
need '"flowcache_miss": 1' reseeded.json
need '"flowcache_hit": 0' reseeded.json

run run.log "$cli" train clean.hcp digit_spam --seed 7 --threads 2
run run.log env HCP_FAILPOINTS=flowcache.store:1 "$cli" train degraded.hcp \
  digit_spam --seed 7 --threads 2 --cache flowcache --report degraded.json
cmp clean.hcp degraded.hcp
need '"flowcache_store_error": 1' degraded.json
need '"flowcache_write": 0' degraded.json
need '"failpoints_fired": 1' degraded.json
[ -z "$(ls flowcache)" ] || { echo "FAIL: degraded run left cache entries"; exit 1; }

run run.log "$cli" train warm.hcp digit_spam --seed 7 --threads 2 --cache flowcache
run run.log "$cli" train lossy.hcp digit_spam --seed 7 --threads 2 --cache flowcache \
  --failpoints flowcache.load:1 --report lossy.json
cmp warm.hcp lossy.hcp
need '"flowcache_load_error": 1' lossy.json
need '"flowcache_hit": 0' lossy.json
echo "a warm cache skips place and route; cache store and load failures" \
  "degrade to identical recomputed models"
