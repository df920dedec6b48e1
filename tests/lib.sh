# Helpers shared by the shell ctests. Source it from a test script with
#   . "$(dirname "$0")/lib.sh"
# then turn binary arguments into absolute paths with abspath before
# calling enter_work_dir, which changes directory.

# abspath PATH: PATH made absolute.
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }

# enter_work_dir: makes a scratch directory, removes it on exit and enters
# it.
enter_work_dir() {
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
  cd "$work" || exit 1
}

# fail MESSAGE...: prints the message and the last captured stderr, exits 1.
fail() {
  echo "FAIL: $*"
  cat err.txt 2> /dev/null
  exit 1
}

# run LOG CMD...: runs CMD with both streams in LOG and requires exit 0.
run() {
  log=$1
  shift
  "$@" > "$log" 2>&1 || { cat "$log"; fail "$*"; }
}

# expect_exit CODE CMD...: runs CMD on an empty stdin with stderr in
# err.txt and requires CODE.
expect_exit() {
  want=$1
  shift
  got=0
  "$@" < /dev/null > /dev/null 2> err.txt || got=$?
  [ "$got" -eq "$want" ] || fail "exit $got, want $want: $*"
}

# need PATTERN FILE: FILE has a line matching PATTERN.
need() { grep -q "$1" "$2" || fail "no '$1' in $2"; }

# no_files DIR: DIR is missing or empty.
no_files() {
  [ -z "$(ls "$1" 2> /dev/null)" ] || { ls "$1"; fail "files left in $1"; }
}
