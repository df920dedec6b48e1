// Telemetry contract: span nesting, deterministic counter/span/histogram
// merges at any thread count (bit-identical doubles included), zero side
// effects when disabled, and strictly valid JSON reports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/process.hpp"
#include "support/telemetry.hpp"

namespace hcp::support::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setEnabled(true);
    reset();
  }
  void TearDown() override {
    setEnabled(false);
    reset();
  }
};

TEST_F(TelemetryTest, SpanNestingBuildsPaths) {
  {
    HCP_SPAN("outer");
    {
      HCP_SPAN("inner");
    }
    {
      HCP_SPAN("inner");
    }
  }
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);

  const auto* outer = snap.span("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->depth, 0u);

  const auto* inner = snap.span("outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_LE(inner->wallNs, outer->wallNs);
}

TEST_F(TelemetryTest, CountersAccumulate) {
  count(Counter::FlowsRun);
  count(Counter::FlowsRun, 4);
  count(Counter::PlacerMovesAccepted, 0);  // no-op
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter(Counter::FlowsRun), 5u);
  EXPECT_EQ(snap.counter(Counter::PlacerMovesAccepted), 0u);
}

TEST_F(TelemetryTest, SnapshotsAreMonotone) {
  count(Counter::RouterRipUps, 2);
  EXPECT_EQ(snapshot().counter(Counter::RouterRipUps), 2u);
  count(Counter::RouterRipUps, 3);
  EXPECT_EQ(snapshot().counter(Counter::RouterRipUps), 5u);
}

/// Runs a parallel region whose tasks record spans and counters; returns
/// the resulting snapshot.
Snapshot runInstrumentedRegion(std::size_t threads) {
  setEnabled(true);
  reset();
  ScopedThreadLimit limit(threads);
  HCP_SPAN("region");
  parallelFor(0, 64, 1, [](std::size_t i) {
    HCP_SPAN("task");
    count(Counter::StaArrivalPropagations, i);
    if (i % 2 == 0) {
      HCP_SPAN("even");
      count(Counter::RouterRipUps);
    }
  });
  return snapshot();
}

TEST_F(TelemetryTest, MergeIsDeterministicAcrossThreadCounts) {
  const Snapshot serial = runInstrumentedRegion(1);
  const Snapshot parallel = runInstrumentedRegion(8);

  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.counter(Counter::StaArrivalPropagations), 64u * 63u / 2);
  EXPECT_EQ(serial.counter(Counter::RouterRipUps), 32u);

  ASSERT_EQ(serial.spans.size(), parallel.spans.size());
  for (std::size_t i = 0; i < serial.spans.size(); ++i) {
    EXPECT_EQ(serial.spans[i].path, parallel.spans[i].path);
    EXPECT_EQ(serial.spans[i].count, parallel.spans[i].count);
    EXPECT_EQ(serial.spans[i].depth, parallel.spans[i].depth);
  }
  // Task spans are prefixed with the submitting thread's open span path.
  const auto* task = parallel.span("region/task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 64u);
  EXPECT_EQ(task->depth, 1u);
  const auto* even = parallel.span("region/task/even");
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(even->count, 32u);
  EXPECT_EQ(even->depth, 2u);
}

TEST_F(TelemetryTest, DisabledHasZeroSideEffects) {
  setEnabled(false);
  {
    HCP_SPAN("ghost");
    count(Counter::FlowsRun, 100);
    ScopedThreadLimit limit(4);
    parallelFor(0, 16, 1, [](std::size_t) {
      HCP_SPAN("ghost_task");
      count(Counter::RouterRipUps);
    });
  }
  setEnabled(true);  // re-enable so snapshot() itself is exercised
  const Snapshot snap = snapshot();
  EXPECT_TRUE(snap.spans.empty());
  for (std::size_t c = 0; c < kNumCounters; ++c)
    EXPECT_EQ(snap.counters[c], 0u) << counterName(static_cast<Counter>(c));
}

TEST(HistStat, TracksCountSumMinMax) {
  HistStat h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty: defined as 0
  h.add(3.0);
  h.add(-1.5);
  h.add(0.0);
  h.add(std::nan(""));  // dropped
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 1.5);
  EXPECT_DOUBLE_EQ(h.min, -1.5);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
}

TEST(HistStat, BucketIndexLayout) {
  const std::size_t zero = HistStat::bucketIndex(0.0);
  EXPECT_EQ(zero, HistStat::kBuckets / 2);
  // Positive magnitudes grow rightward, negative leftward, symmetrically.
  EXPECT_EQ(HistStat::bucketIndex(1.0), zero + 1 + 16);   // 2^0
  EXPECT_EQ(HistStat::bucketIndex(-1.0), zero - 1 - 16);
  EXPECT_EQ(HistStat::bucketIndex(2.0), HistStat::bucketIndex(3.9));
  EXPECT_LT(HistStat::bucketIndex(2.0), HistStat::bucketIndex(4.0));
  // Out-of-range magnitudes clamp into the edge buckets.
  EXPECT_EQ(HistStat::bucketIndex(1e300), HistStat::kBuckets - 1);
  EXPECT_EQ(HistStat::bucketIndex(-1e300), 0u);
  EXPECT_EQ(HistStat::bucketIndex(1e-300), zero + 1);
}

TEST(HistStat, PercentileIsBucketEdgeClampedToRange) {
  HistStat h;
  for (int i = 0; i < 100; ++i) h.add(1.5);  // all in bucket [1, 2)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);  // edge 2.0 clamps to max
  h.add(100.0);  // one outlier in [64, 128)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);    // interior: bucket upper edge
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);  // exact max
}

TEST(HistStat, MergeMatchesSequentialAdds) {
  HistStat a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i * 1.25);
    all.add(i * 1.25);
  }
  for (int i = 10; i < 20; ++i) {
    b.add(i * -0.75);
    all.add(i * -0.75);
  }
  a.merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  EXPECT_EQ(a.buckets, all.buckets);
  HistStat empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.min, all.min);
}

TEST_F(TelemetryTest, ObserveFeedsSnapshotHistograms) {
  observe(Histogram::NetFanout, 4.0);
  observe(Histogram::NetFanout, 2.0);
  observe(Histogram::StaSlackNs, -3.25);
  const Snapshot snap = snapshot();
  const HistStat& fanout = snap.histogram(Histogram::NetFanout);
  EXPECT_EQ(fanout.count, 2u);
  EXPECT_DOUBLE_EQ(fanout.sum, 6.0);
  const HistStat& slack = snap.histogram(Histogram::StaSlackNs);
  EXPECT_EQ(slack.count, 1u);
  EXPECT_DOUBLE_EQ(slack.min, -3.25);
}

/// Observes one value per task from a parallel region and returns the
/// merged histogram.
HistStat observeInRegion(std::size_t threads) {
  setEnabled(true);
  reset();
  ScopedThreadLimit limit(threads);
  parallelFor(0, 128, 1, [](std::size_t i) {
    // Values whose sum is order-sensitive in floating point: any deviation
    // from the fixed merge order changes the bits of `sum`.
    observe(Histogram::DatasetLabelPct, 1.0 + 1e-13 * double(i * i % 97));
  });
  return snapshot().histogram(Histogram::DatasetLabelPct);
}

TEST_F(TelemetryTest, HistogramMergeIsBitIdenticalAcrossThreadCounts) {
  const HistStat serial = observeInRegion(1);
  const HistStat parallel = observeInRegion(8);
  EXPECT_EQ(serial.count, parallel.count);
  // memcmp, not ==: the contract is bit-identical doubles, which is what
  // makes run reports diffable across thread counts.
  EXPECT_EQ(std::memcmp(&serial.sum, &parallel.sum, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.min, &parallel.min, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.max, &parallel.max, sizeof(double)), 0);
  EXPECT_EQ(serial.buckets, parallel.buckets);
}

TEST_F(TelemetryTest, HistogramNamesAreStable) {
  EXPECT_EQ(histogramName(Histogram::PlacerAcceptedMoveDelta),
            "placer_accepted_move_delta");
  EXPECT_EQ(histogramName(Histogram::CvFoldMedae), "cv_fold_medae");
}

TEST_F(TelemetryTest, ReportWritesStrictlyValidJson) {
  {
    HCP_SPAN("flow");
    count(Counter::FlowsRun);
    observe(Histogram::NetFanout, 2.0);
  }
  RunReport meta;
  meta.tool = "unit_test";
  meta.command = "flow";
  // Design names a sloppy escaper would corrupt: quotes, backslashes,
  // newline, tab, and a raw control byte.
  meta.designs = {"design_a", "design \"b\"", "back\\slash",
                  std::string("ctl\x01\n\tend")};
  meta.seed = 7;
  meta.threads = 3;
  meta.totalWallMs = 1.5;
  std::ostringstream os;
  writeReport(os, meta, snapshot());

  // The report must parse under the strict RFC 8259 parser — not merely
  // be brace-balanced — and every field must round-trip exactly.
  const json::Value doc = json::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.find("schema_version")->asNumber(),
                   kReportSchemaVersion);
  EXPECT_EQ(doc.object[0].first, "schema_version");  // first key: versioning
  EXPECT_EQ(doc.find("tool")->asString(), "unit_test");
  EXPECT_DOUBLE_EQ(doc.find("seed")->asNumber(), 7.0);
  EXPECT_DOUBLE_EQ(doc.find("threads")->asNumber(), 3.0);
  const json::Value* designs = doc.find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array.size(), meta.designs.size());
  for (std::size_t i = 0; i < meta.designs.size(); ++i)
    EXPECT_EQ(designs->array[i].asString(), meta.designs[i]);

  EXPECT_DOUBLE_EQ(doc.find("counters")->find("flows_run")->asNumber(), 1.0);
  const json::Value* fanout = doc.find("histograms")->find("net_fanout");
  ASSERT_NE(fanout, nullptr);
  EXPECT_DOUBLE_EQ(fanout->find("count")->asNumber(), 1.0);
  EXPECT_DOUBLE_EQ(fanout->find("sum")->asNumber(), 2.0);
  for (const char* field : {"min", "max", "p50", "p90", "p99"})
    EXPECT_TRUE(fanout->find(field)->isNumber()) << field;

  const json::Value* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 1u);
  EXPECT_EQ(spans->array[0].find("path")->asString(), "flow");
}

TEST_F(TelemetryTest, ReportDoublesRoundTripBitExactly) {
  // 0.1 + 0.2 is not 0.3 in binary; %.17g in the writer must preserve the
  // exact sum so compare-reports sees identical text for identical runs.
  observe(Histogram::StaSlackNs, 0.1);
  observe(Histogram::StaSlackNs, 0.2);
  RunReport meta;
  meta.tool = "t";
  std::ostringstream os;
  writeReport(os, meta, snapshot());
  const json::Value doc = json::parse(os.str());
  const double sum =
      doc.find("histograms")->find("sta_slack_ns")->find("sum")->asNumber();
  const double expected = 0.1 + 0.2;
  EXPECT_EQ(std::memcmp(&sum, &expected, sizeof(double)), 0);
}

// The process shell reads --report (and its other flags) in one argv scan.
process::ShellArgs scan(process::Mode mode, std::vector<const char*> argv) {
  return process::scanArgs("tool", mode, static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()));
}

using Words = std::vector<std::string>;

TEST(TelemetryFlags, ReportFlagParsesBothSpellings) {
  using process::Mode;
  const auto both = scan(Mode::kRun, {"tool", "--report", "a.json", "run",
                                      "--trace=t.json", "--seed", "7"});
  EXPECT_EQ(both.report, "a.json");
  EXPECT_EQ(both.trace, "t.json");
  EXPECT_EQ(both.rest, (Words{"run", "--seed", "7"}));
  const auto last = scan(Mode::kRun, {"tool", "--report=a.json", "--report",
                                      "c.json", "--cache=d"});
  EXPECT_EQ(last.report, "c.json");  // last occurrence wins
  EXPECT_EQ(last.cache, "d");
  EXPECT_TRUE(last.rest.empty());
  const auto absent = scan(Mode::kRun, {"tool", "run", "--reports=x"});
  EXPECT_EQ(absent.report, "");  // a longer name is not the flag
  EXPECT_EQ(absent.rest, (Words{"run", "--reports=x"}));
  // kQuery takes only --failpoints; the rest stays for the body.
  const auto query =
      scan(Mode::kQuery, {"tool", "--report", "r.json", "--failpoints=s:1"});
  EXPECT_EQ(query.failpoints, "s:1");
  EXPECT_EQ(query.report, "");
  EXPECT_EQ(query.rest, (Words{"--report", "r.json"}));
}

TEST(TelemetryFlagsDeathTest, TrailingFlagWithoutValueExitsWithUsageError) {
  using process::Mode;
  EXPECT_EXIT((void)scan(Mode::kRun, {"tool", "--report"}),
              ::testing::ExitedWithCode(2), "tool: --report expects a value");
  EXPECT_EXIT((void)scan(Mode::kRun, {"tool", "--trace="}),
              ::testing::ExitedWithCode(2),
              "tool: --trace expects a non-empty value");
}

// Thousands of tiny back-to-back batches (the GBRT training pattern):
// every batch's counter total must land exactly, and no worker may touch a
// previous batch's task after it was torn down.
TEST_F(TelemetryTest, BackToBackBatchesMergeExactly) {
  ScopedThreadLimit limit(8);
  constexpr std::size_t kBatches = 4000;
  constexpr std::size_t kTasks = 16;
  for (std::size_t b = 0; b < kBatches; ++b) {
    parallelFor(0, kTasks, 1, [](std::size_t) {
      count(Counter::PlacerMovesProposed);
    });
  }
  EXPECT_EQ(snapshot().counter(Counter::PlacerMovesProposed),
            kBatches * kTasks);
}

TEST_F(TelemetryTest, CounterNamesAreStable) {
  EXPECT_EQ(counterName(Counter::PlacerMovesAccepted),
            "placer_moves_accepted");
  EXPECT_EQ(counterName(Counter::GbrtBoostingRounds), "gbrt_boosting_rounds");
}

}  // namespace
}  // namespace hcp::support::telemetry
