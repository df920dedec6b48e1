#!/bin/sh
# hcp_serve's exit-code contract for bad input and a dead response stream.
#
#   sh serve_exit_codes.sh HCP_SERVE
#
# Checks, in order:
#   - an unknown flag exits 2;
#   - a model that cannot be loaded exits 1;
#   - a response written to a full stdout exits 5 with the stream named
#     <stdout>, as hcp_cli's exit-5 messages name theirs.
set -u
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
serve=$(abspath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "FAIL: $*"
  cat err.txt 2> /dev/null
  exit 1
}
# expect_exit CODE CMD...: runs CMD on an empty stdin with stderr in
# err.txt and requires CODE.
expect_exit() {
  want=$1
  shift
  "$@" < /dev/null > /dev/null 2> err.txt
  got=$?
  [ "$got" -eq "$want" ] || fail "exit $got, want $want: $*"
}

expect_exit 2 "$serve" --bogus-flag
expect_exit 1 "$serve" --model missing.hcp

printf '{"op":"status"}\n' | "$serve" > /dev/full 2> err.txt
code=$?
[ "$code" -eq 5 ] || fail "status into /dev/full: exit $code"
grep -q '<stdout>' err.txt || fail "no '<stdout>' in the exit-5 message"
echo "usage errors, unloadable models and dead streams exit as the" \
  "contract says"
