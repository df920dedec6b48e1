#!/bin/sh
# hcp_serve's exit-code contract for bad input and a dead response stream,
# and hcp_top's usage-error wording.
#
#   sh serve_exit_codes.sh HCP_SERVE HCP_TOP
#
# Checks, in order:
#   - an unknown flag exits 2, and so do a bare trailing --threads and a
#     bare trailing --model, each message reading `hcp_serve: --X expects a
#     value`; a bare trailing --socket does the same in hcp_top;
#   - a model that cannot be loaded exits 1;
#   - a response written to a full stdout exits 5 with the stream named
#     <stdout>, as hcp_cli's exit-5 messages name theirs;
#   - an injected report rename failure exits 5 and leaves no report file;
#   - a dead response stream still leaves the requested run report.
set -u
. "$(dirname "$0")/lib.sh"
serve=$(abspath "$1")
top=$(abspath "$2")
enter_work_dir

expect_exit 2 "$serve" --bogus-flag
expect_exit 2 "$serve" --threads
need '^hcp_serve: --threads expects a value$' err.txt
expect_exit 2 "$serve" --model
need '^hcp_serve: --model expects a value$' err.txt
expect_exit 2 "$top" --socket
need '^hcp_top: --socket expects a value$' err.txt
expect_exit 1 "$serve" --model missing.hcp

printf '{"op":"status"}\n' | "$serve" > /dev/full 2> err.txt
code=$?
[ "$code" -eq 5 ] || fail "status into /dev/full: exit $code"
grep -q '<stdout>' err.txt || fail "no '<stdout>' in the exit-5 message"

expect_exit 5 "$serve" --report r.json --failpoints report.rename:1
[ -z "$(ls r.json* 2> /dev/null)" ] || fail "partial report left behind"
printf '{"op":"status"}\n' | "$serve" --report r.json > /dev/full 2> err.txt
code=$?
[ "$code" -eq 5 ] || fail "status into /dev/full with a report: exit $code"
[ -s r.json ] || fail "a dead response stream lost the run report"
echo "usage errors, unloadable models, dead streams and injected report" \
  "failures exit as the contract says"
