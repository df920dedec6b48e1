#!/bin/sh
# hcp_cli's exit-code contract for reports, bad input and dead streams.
#
#   sh cli_exit_codes.sh HCP_CLI
#
# Checks, in order:
#   - flow --report writes a valid run report that counts accepted placer
#     moves and router iterations, and `profile` prints its spans; a
#     missing report exits 4 and a missing argument 2;
#   - usage errors exit 2: a non-numeric --seed, an unknown flag, --report
#     without a value and an empty --trace=; a process-shell flag's message
#     carries the `hcp_cli: ` prefix;
#   - integer flags are strict: a signed, space-padded or negative --seed
#     or --threads exits 2;
#   - a truncated model exits 1;
#   - a malformed HCP_THREADS (garbage, 4abc, 0) exits 2, even for a
#     subcommand that never threads, while an empty one means the default;
#   - a reader hanging up is exit 0 or 5, never a signal death, and a write
#     to a full stdout exits 5 with the stream named <stdout>;
#   - injected artifact failures exit 5 and leave no file: a model write
#     (the error names the model), a report rename and a trace open; a
#     malformed failpoint spec exits 2.
set -u
. "$(dirname "$0")/lib.sh"
cli=$(abspath "$1")
enter_work_dir

# A flow run report.
run flow.log "$cli" flow face_detection --report report.json
run json.log python3 -m json.tool report.json
need '"placer_moves_accepted": [1-9]' report.json
need '"router_iterations": [1-9]' report.json
run profile.log "$cli" profile report.json
need '^flow/route ' profile.log
need '^(outside spans) ' profile.log
expect_exit 4 "$cli" profile missing.json
expect_exit 2 "$cli" profile

# Usage errors and a corrupt model.
expect_exit 2 "$cli" flow face_detection --seed abc
expect_exit 2 "$cli" flow face_detection --bogus-flag
expect_exit 2 "$cli" flow face_detection --report
expect_exit 2 "$cli" flow spam_filter --report
need '^hcp_cli: --report expects a value$' err.txt
expect_exit 2 "$cli" flow face_detection --trace=
need '^hcp_cli: --trace expects a non-empty value$' err.txt

# Integer flags are strict: no sign, no padding, no wrap to 2^64-1.
expect_exit 2 "$cli" dump-ir spam_filter --seed -1
expect_exit 2 "$cli" dump-ir spam_filter --seed +7
expect_exit 2 "$cli" dump-ir spam_filter --seed ' 7'
expect_exit 2 "$cli" dump-ir spam_filter --threads -1

run train.log "$cli" train model.hcp spam_filter
head -c 100 model.hcp > truncated.hcp
expect_exit 1 "$cli" predict truncated.hcp face_detection

# HCP_THREADS is parsed strictly: garbage is not "all cores", 4abc not 4.
expect_exit 2 env HCP_THREADS=garbage "$cli" list
expect_exit 2 env HCP_THREADS=4abc "$cli" flow face_detection
expect_exit 2 env HCP_THREADS=0 "$cli" flow face_detection
run list.log env HCP_THREADS= "$cli" list

# A dead stdout is an artifact/IO error (exit 5), not a SIGPIPE kill.
{ "$cli" list; echo $? > code.txt; } | head -c 1 > /dev/null
code=$(cat code.txt)
[ "$code" -eq 0 ] || [ "$code" -eq 5 ] || fail "list into a closed pipe: exit $code"
"$cli" flow face_detection > /dev/full 2> err.txt
code=$?
[ "$code" -eq 5 ] || fail "flow into /dev/full: exit $code"
need '<stdout>' err.txt

# Injected artifact failures: exit 5, the path named, no partial file.
expect_exit 5 env HCP_FAILPOINTS=model.write:1 "$cli" train lost.hcp \
  digit_recognition --seed 7
need 'artifact write error' err.txt
need 'lost.hcp' err.txt
[ -z "$(ls lost.hcp* 2> /dev/null)" ] || fail "partial model left behind"
expect_exit 5 "$cli" flow face_detection --report rep.json \
  --failpoints report.rename:1
[ -z "$(ls rep.json* 2> /dev/null)" ] || fail "partial report left behind"
expect_exit 5 "$cli" flow face_detection --trace tr.json \
  --failpoints trace.open:1
[ -z "$(ls tr.json* 2> /dev/null)" ] || fail "partial trace left behind"
expect_exit 2 "$cli" flow face_detection --failpoints 'bogus spec'
echo "reports, usage errors, corrupt models, thread counts, dead streams" \
  "and injected artifact failures exit as the contract says"
