#!/bin/sh
# Bad shard inputs and shard I/O faults exit with the artifact contract's
# codes.
#
#   sh shard_exit_codes.sh HCP_CLI
#
# Shards one design, then checks:
#   - a truncated shard or one with trailing garbage is exit 1, and the
#     truncation error names the shard file;
#   - an empty shard directory is a usage error (exit 2), not a model trained
#     on nothing, and no model file is left behind;
#   - injected shard.write / shard.rename faults are exit 5, the write error
#     names the shard directory, and no partial shard is left behind;
#   - an injected shard.read fault is exit 1 and a malformed failpoint spec
#     is exit 2.
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
# expect_exit CODE CMD...: runs CMD with stderr in err.txt and requires CODE.
expect_exit() {
  want=$1
  shift
  "$@" > /dev/null 2> err.txt
  got=$?
  [ "$got" -eq "$want" ] || fail "exit $got, want $want: $*"
}
# no_files DIR: DIR is missing or empty.
no_files() {
  [ -z "$(ls "$1" 2> /dev/null)" ] || { ls "$1"; fail "files left in $1"; }
}

"$cli" shard spam_filter --seed 7 --shard-dir shards > shard.log 2>&1 ||
  { cat shard.log; exit 1; }

# Corrupt or missing shards fail loudly.
f=$(ls shards/*.shard | head -1)
cp "$f" good.shard
head -c 200 good.shard > "$f"
expect_exit 1 "$cli" train bad.hcp --from-shards --shard-dir shards
grep -q 'truncated shard' err.txt || fail "no 'truncated shard' message"
grep -q "$f" err.txt || fail "error does not name $f"
cp good.shard "$f"
echo 'trailing garbage' >> "$f"
expect_exit 1 "$cli" train bad.hcp --from-shards --shard-dir shards
cp good.shard "$f"
mkdir empty_shards
expect_exit 2 "$cli" train bad.hcp --from-shards --shard-dir empty_shards
grep -q 'training dataset is empty' err.txt || fail "no empty-dataset message"
[ ! -e bad.hcp ] || fail "a failed train left bad.hcp behind"

# Injected shard I/O failures follow the artifact contract.
expect_exit 5 env HCP_FAILPOINTS=shard.write:1 \
  "$cli" shard spam_filter --shard-dir fp_shards --seed 7
grep -q 'artifact write error' err.txt || fail "no artifact write error"
grep -q 'fp_shards' err.txt || fail "write error does not name fp_shards"
no_files fp_shards
expect_exit 5 env HCP_FAILPOINTS=shard.rename:1 \
  "$cli" shard spam_filter --shard-dir fp_shards --seed 7
no_files fp_shards
expect_exit 1 "$cli" train faulted.hcp --from-shards --shard-dir shards \
  --failpoints shard.read:1
expect_exit 2 "$cli" train x.hcp --from-shards --shard-dir shards \
  --failpoints 'shard.read:0x8'
echo "bad shard inputs and injected shard faults exited as contracted"
