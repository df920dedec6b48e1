#!/bin/sh
# Lists the library functions that no production binary links.
#
#   sh tools/reachability_scan.sh
#
# Builds the production binaries in two scratch trees at -O0 -fno-inline
# with -ffunction-sections -fdata-sections, linked with -Wl,--gc-sections:
# the root project (hcp_cli, hcp_serve, hcp_top, every bench and every
# example; no tests) and perfbench/ standalone. It then prints, demangled,
# each global text (`T`) symbol of the libhcp_*.a archives that none of those
# binaries defines, minus the keep list below, and each keep entry that
# matched no such symbol (a stale entry). Exits 1 if it prints anything, 2
# if a build fails.
#
# Header-inline code, templates and classes used only by tests are weak or
# local symbols, so the scan does not see them. The two builds take about
# two minutes on four cores; the scratch trees go under $TMPDIR and are
# removed on exit.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Functions that stay although no production binary links them. Each line
# is `<demangled-symbol prefix>|<why it stays>`; a symbol is kept when its
# demangled name starts with the prefix.
keep='hcp::support::failpoint::ScopedFailpoints::|test hook: scoped fault injection
hcp::support::failpoint::clear(|test hook: disarms every failpoint
hcp::support::failpoint::firedCount(|test hook: counts a site'"'"'s fires
hcp::support::failpoint::sites[abi:cxx11](|test hook: lists the armed sites
hcp::support::telemetry::reset(|test hook: zeroes the counters between tests
hcp::support::tracing::reset(|test hook: empties the trace buffer between tests
hcp::support::flowcache::detail::resetDegraded(|test hook: clears the degraded flag between tests
hcp::Rng::uniformReal(double, double)|fixture generator: random_design.hpp feeds golden_cv_scores.txt and GoldenFlow
hcp::Rng::bernoulli(|fixture generator: random_design.hpp feeds golden_cv_scores.txt and GoldenFlow
hcp::ml::RegressionTree::predict(std::vector<double|oracle: the tree-sum check in test_util.hpp
hcp::ml::RegressionTree::fit(hcp::ml::Dataset const&|the tree tests'"'"' way into fitBinned
hcp::ir::verifyOrThrow(hcp::ir::Function const&|oracle: per-function IR verification in tests
hcp::support::metrics::validMetricName(|oracle: Prometheus name check in tests
hcp::support::json::Value::asBool(|observer: reads boolean fields in tests
hcp::support::telemetry::Snapshot::span(|observer: reads one span in tests
hcp::support::tracing::droppedEvents(|observer: counts dropped trace events in tests
hcp::support::flowcache::globalDir[abi:cxx11](|observer: reads the armed cache dir in tests
hcp::features::FeatureRegistry::indexOf(|observer: finds a feature column in tests
hcp::rtl::Netlist::totalResource(|observer: netlist resource totals in tests
hcp::ml::loadModelFromFile(|entry to the hcp-model rejection tests
hcp::ml::saveModelToFile(|entry to the hcp-model rejection tests'

flags='-O0 -fno-inline -ffunction-sections -fdata-sections'
configure_and_build() {  # SOURCE_DIR BUILD_DIR TARGET...
  src=$1
  dir=$2
  shift 2
  cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > "$work/cmake.log" 2>&1 &&
    cmake --build "$dir" -j "$(nproc)" --target "$@" >> "$work/cmake.log" 2>&1 ||
    { cat "$work/cmake.log"; echo "reachability_scan: build of $src failed" >&2; exit 2; }
}

targets="hcp_cli hcp_serve hcp_top"
targets="$targets $(sed -n 's/^hcp_add_bench(\([a-z0-9_]*\) .*/\1/p' "$root/bench/CMakeLists.txt")"
targets="$targets $(sed -n 's/^hcp_add_example(\([a-z0-9_]*\) .*/\1/p' "$root/examples/CMakeLists.txt")"
# shellcheck disable=SC2086  # the target list is split on purpose
configure_and_build "$root" "$work/root" $targets
configure_and_build "$root/perfbench" "$work/perfbench" perfbench

# Every text symbol any production binary defines.
for t in $targets; do
  find "$work/root" -type f -name "$t" -perm -u+x
done > "$work/binaries"
echo "$work/perfbench/perfbench" >> "$work/binaries"
while read -r bin; do
  nm --defined-only "$bin" | awk '$2 ~ /^[Tt]$/ { print $3 }'
done < "$work/binaries" | sort -u > "$work/linked"

find "$work/root/src" -name 'libhcp_*.a' -exec nm --defined-only {} + |
  awk '$2 == "T" { print $3 }' | sort -u > "$work/library"

echo "$keep" | cut -d'|' -f1 > "$work/keep"
comm -23 "$work/library" "$work/linked" | c++filt |
  awk -v keepfile="$work/keep" '
    BEGIN { while ((getline k < keepfile) > 0) if (k != "") keep[++n] = k }
    {
      for (i = 1; i <= n; ++i)
        if (index($0, keep[i]) == 1) { used[i] = 1; next }
      print
    }
    END {
      for (i = 1; i <= n; ++i)
        if (!used[i]) print "stale keep entry: " keep[i]
    }' |
  sort > "$work/unlinked"

cat "$work/unlinked"
[ ! -s "$work/unlinked" ]
