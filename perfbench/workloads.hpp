// The three benchmark workloads. Each runs its set-up several times, then
// repeats passes until the measuring time is spent, checks every output and
// fills `Result` with the metrics the run mode asks for: end-to-end metrics
// from untraced passes, per-layer metrics (with `opts.trace`) from traced
// passes interleaved with untraced ones.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// All bundled designs through core::runFlows, flow cache off. Stresses
/// fpga place/route and the thread pool.
Result runImplement(const Options& opts, Tracer& tracer);

/// In-process serve::Server answering a shuffled predict/replay mix, one
/// request per flush window. Stresses hls, features, ml inference, the flow
/// cache and the serving loop; never places or routes in its passes.
Result runServe(const Options& opts, Tracer& tracer);

/// CongestionPredictor::trainFromShards for Lasso, GBRT and MLP plus
/// held-out scoring. Stresses ml fitting and the shard reader.
Result runTrain(const Options& opts, Tracer& tracer);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

}  // namespace perfbench
