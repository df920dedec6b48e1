#!/bin/sh
# Streamed training is byte-identical at any thread count.
#
#   sh train_threads_identical.sh HCP_CLI
#
# Shards three designs once, then trains every model family from the shards
# at 1, 2 and 4 threads; each family's model files must match byte for byte.
# HCP_SHARDS (the env fallback for --shard-dir) must train the same default
# model as the flag, and the model it writes must load and predict.
set -eu
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$cli" shard spam_filter digit_recognition face_detection --seed 7 \
  --shard-dir shards > shard.log 2>&1 || { cat shard.log; exit 1; }
for kind in linear gbrt ann; do
  for t in 1 2 4; do
    "$cli" train "stream_${kind}_t$t.hcp" --from-shards --shard-dir shards \
      --model "$kind" --seed 7 --threads "$t" > train.log 2>&1 ||
      { cat train.log; exit 1; }
    cmp "stream_${kind}_t1.hcp" "stream_${kind}_t$t.hcp"
  done
done
HCP_SHARDS=shards "$cli" train env.hcp --from-shards --seed 7 > train.log 2>&1 ||
  { cat train.log; exit 1; }
cmp stream_gbrt_t1.hcp env.hcp
"$cli" predict stream_gbrt_t1.hcp face_detection > /dev/null
echo "streamed models identical at 1, 2 and 4 threads"
