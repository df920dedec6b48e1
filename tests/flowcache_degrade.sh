#!/bin/sh
# A failing flow cache degrades to recompute and never changes the model.
#
#   sh flowcache_degrade.sh HCP_CLI
#
# Store failure: a cached run whose one cache store is failed by a failpoint
# keeps exit 0 and writes the model of an uncached run; its report counts
# the store error, no cache write and the fired failpoint, and the cache
# directory stays empty. Load failure: a run whose one cache load fails
# recomputes the flow and writes the model of the warm run before it; its
# report counts the load error and no cache hit.
set -eu
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

run() { "$@" > run.log 2>&1 || { cat run.log; exit 1; }; }
need() { grep -q "$1" "$2" || { echo "FAIL: no '$1' in $2"; exit 1; }; }

run "$cli" train clean.hcp digit_spam --seed 7 --threads 2
run env HCP_FAILPOINTS=flowcache.store:1 "$cli" train degraded.hcp digit_spam \
  --seed 7 --threads 2 --cache flowcache --report degraded.json
cmp clean.hcp degraded.hcp
need '"flowcache_store_error": 1' degraded.json
need '"flowcache_write": 0' degraded.json
need '"failpoints_fired": 1' degraded.json
[ -z "$(ls flowcache)" ] || { echo "FAIL: degraded run left cache entries"; exit 1; }

run "$cli" train warm.hcp digit_spam --seed 7 --threads 2 --cache flowcache
run "$cli" train lossy.hcp digit_spam --seed 7 --threads 2 --cache flowcache \
  --failpoints flowcache.load:1 --report lossy.json
cmp warm.hcp lossy.hcp
need '"flowcache_load_error": 1' lossy.json
need '"flowcache_hit": 0' lossy.json
echo "cache store and load failures degrade to identical recomputed models"
