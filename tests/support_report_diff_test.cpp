// compare-reports is CI's regression gate, so its exit codes are contract:
// 0 = clean diff, 1 = regression, 4 = malformed input or wrong schema.
// These tests drive compareReportFiles() on hand-built reports covering
// every verdict, and profileReport() on a checked-in `hcp_cli train`
// report and on hand-built ones.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/json.hpp"
#include "support/report_diff.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace hcp::support::report_diff {
namespace {

/// Writes `content` to a temp file unique to (test, tag) — ctest runs the
/// tests of this suite as concurrent processes — removed on destruction.
class TempFile : public hcp::test::TempFile {
 public:
  TempFile(const std::string& tag, const std::string& content)
      : hcp::test::TempFile(
            hcp::test::uniqueStem("hcp_report_diff", tag) + ".json", content) {}
};

/// A minimal schema-valid report. `wallMs` and one counter are the knobs
/// the tests turn.
std::string makeReport(double wallMs, int flowsRun, int histCount = 3) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema_version\": " << telemetry::kReportSchemaVersion << ",\n"
     << "  \"total_wall_ms\": " << wallMs << ",\n"
     << "  \"spans\": [{\"path\": \"flow\", \"depth\": 0, \"count\": 1, "
        "\"wall_ms\": "
     << wallMs << "}],\n"
     << "  \"counters\": {\"flows_run\": " << flowsRun << "},\n"
     << "  \"histograms\": {\"net_fanout\": {\"count\": " << histCount
     << ", \"sum\": 6, \"min\": 1, \"max\": 3, \"p50\": 2, \"p90\": 3, "
        "\"p99\": 3}}\n"
     << "}\n";
  return os.str();
}

int run(const std::string& base, const std::string& fresh,
        const Options& options, std::string* outText = nullptr) {
  TempFile baseFile("base", base);
  TempFile newFile("new", fresh);
  std::ostringstream os;
  const int code =
      compareReportFiles(baseFile.path(), newFile.path(), options, os);
  if (outText != nullptr) *outText = os.str();
  return code;
}

TEST(ReportDiff, IdenticalReportsPass) {
  const std::string r = makeReport(100.0, 5);
  Options opts;
  opts.requireCountersEqual = true;
  opts.maxWallRegressPct = 0.0;
  std::string text;
  EXPECT_EQ(run(r, r, opts, &text), kExitOk);
  EXPECT_NE(text.find("compare-reports: OK"), std::string::npos);
}

TEST(ReportDiff, WallTimeGateTriggersAboveTolerance) {
  Options opts;
  opts.maxWallRegressPct = 10.0;
  // +5% passes, +25% fails.
  EXPECT_EQ(run(makeReport(100.0, 5), makeReport(105.0, 5), opts), kExitOk);
  std::string text;
  EXPECT_EQ(run(makeReport(100.0, 5), makeReport(125.0, 5), opts, &text),
            kExitRegression);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("total_wall_ms"), std::string::npos);
}

TEST(ReportDiff, WallTimeUngatedWithoutLimit) {
  Options opts;  // maxWallRegressPct < 0: informational only
  EXPECT_EQ(run(makeReport(100.0, 5), makeReport(900.0, 5), opts), kExitOk);
}

TEST(ReportDiff, CounterDriftFailsOnlyWhenGated) {
  const std::string base = makeReport(100.0, 5);
  const std::string drifted = makeReport(100.0, 6);
  Options loose;
  std::string text;
  EXPECT_EQ(run(base, drifted, loose, &text), kExitOk);
  EXPECT_NE(text.find("** CHANGED"), std::string::npos);  // still flagged
  Options strict;
  strict.requireCountersEqual = true;
  EXPECT_EQ(run(base, drifted, strict, &text), kExitRegression);
  EXPECT_NE(text.find("counter totals differ"), std::string::npos);
}

TEST(ReportDiff, HistogramCountDriftFailsWhenGated) {
  Options strict;
  strict.requireCountersEqual = true;
  std::string text;
  EXPECT_EQ(run(makeReport(100.0, 5, 3), makeReport(100.0, 5, 4), strict,
                &text),
            kExitRegression);
  EXPECT_NE(text.find("histogram observation counts differ"),
            std::string::npos);
}

TEST(ReportDiff, MalformedJsonIsBadInput) {
  std::string text;
  EXPECT_EQ(run("{ not json", makeReport(1.0, 1), {}, &text), kExitBadInput);
  EXPECT_NE(text.find("bad input"), std::string::npos);
  EXPECT_EQ(run(makeReport(1.0, 1), "[1, 2, 3,]", {}), kExitBadInput);
}

TEST(ReportDiff, MissingSchemaVersionIsBadInput) {
  std::string text;
  EXPECT_EQ(run("{\"total_wall_ms\": 1, \"spans\": [], \"counters\": {}, "
                "\"histograms\": {}}",
                makeReport(1.0, 1), {}, &text),
            kExitBadInput);
  EXPECT_NE(text.find("schema_version"), std::string::npos);
}

TEST(ReportDiff, WrongSchemaVersionIsBadInput) {
  std::string futuristic = makeReport(1.0, 1);
  const std::string needle =
      "\"schema_version\": " +
      std::to_string(telemetry::kReportSchemaVersion);
  futuristic.replace(futuristic.find(needle), needle.size(),
                     "\"schema_version\": 999");
  std::string text;
  EXPECT_EQ(run(makeReport(1.0, 1), futuristic, {}, &text), kExitBadInput);
  EXPECT_NE(text.find("unsupported schema_version"), std::string::npos);
}

TEST(ReportDiff, MissingFileIsBadInput) {
  std::ostringstream os;
  EXPECT_EQ(compareReportFiles("/nonexistent/base.json",
                               "/nonexistent/new.json", {}, os),
            kExitBadInput);
}

TEST(ReportDiff, BenchOutSummaryIsValidJson) {
  TempFile baseFile("bo_base", makeReport(100.0, 5));
  TempFile newFile("bo_new", makeReport(120.0, 6));
  const std::string benchPath =
      std::string(::testing::TempDir()) + "hcp_report_diff_bench_out.json";
  Options opts;
  opts.maxWallRegressPct = 10.0;
  opts.requireCountersEqual = true;
  opts.benchOutPath = benchPath;
  std::ostringstream os;
  EXPECT_EQ(compareReportFiles(baseFile.path(), newFile.path(), opts, os),
            kExitRegression);

  const json::Value bench = json::parseFile(benchPath);  // must be strict JSON
  std::remove(benchPath.c_str());
  EXPECT_FALSE(bench.find("ok")->asBool());
  EXPECT_FALSE(bench.find("counters_equal")->asBool());
  EXPECT_DOUBLE_EQ(bench.find("total_wall_ms")->find("base")->asNumber(),
                   100.0);
  EXPECT_DOUBLE_EQ(bench.find("total_wall_ms")->find("new")->asNumber(),
                   120.0);
  EXPECT_GE(bench.find("regressions")->array.size(), 2u);
}

/// The rows of profileReport() by path.
std::map<std::string, ProfileRow> profileByPath(const std::string& path) {
  std::map<std::string, ProfileRow> rows;
  for (const ProfileRow& row : profileReport(path)) rows[row.path] = row;
  return rows;
}

double shareSum(const std::map<std::string, ProfileRow>& rows) {
  double sum = 0.0;
  for (const auto& [path, row] : rows) sum += row.share;
  return sum;
}

TEST(ReportProfile, FixtureSharesSumToOneAndLeavesKeepTheirTotal) {
  const std::string fixture = HCP_FIXTURE_DIR "/train_report.json";
  const auto rows = profileByPath(fixture);
  const json::Value report = json::parseFile(fixture);
  ASSERT_EQ(rows.size(), report.find("spans")->array.size() + 1);
  EXPECT_NEAR(shareSum(rows), 1.0, 1e-12);
  // A leaf's self time is its total; `flow`'s is its total minus its
  // seven stages'.
  double stagesMs = 0.0;
  for (const auto& [path, row] : rows) {
    if (path.rfind("flow/", 0) == 0) {
      EXPECT_EQ(row.selfMs, row.totalMs) << path;
      stagesMs += row.totalMs;
    }
  }
  EXPECT_EQ(rows.at("train").selfMs, rows.at("train").totalMs);
  EXPECT_EQ(rows.at("build_dataset").selfMs,
            rows.at("build_dataset").totalMs);
  EXPECT_NEAR(rows.at("flow").selfMs, rows.at("flow").totalMs - stagesMs,
              1e-9);
  EXPECT_EQ(rows.at("flow/route").count, 2u);
  // Two flows on two threads: the spans hold more time than the wall
  // clock, so no wall time is left outside them.
  EXPECT_EQ(rows.at(kOutsideSpans).selfMs, 0.0);
}

/// A report with total_wall_ms `wallMs` and the given (path, wall_ms)
/// spans.
std::string spansReport(
    double wallMs, const std::vector<std::pair<std::string, double>>& spans) {
  std::ostringstream os;
  os << "{\"schema_version\": " << telemetry::kReportSchemaVersion
     << ", \"total_wall_ms\": " << wallMs << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i)
    os << (i == 0 ? "" : ", ") << "{\"path\": \"" << spans[i].first
       << "\", \"depth\": 0, \"count\": 1, \"wall_ms\": "
       << spans[i].second << "}";
  os << "], \"counters\": {}, \"histograms\": {}}";
  return os.str();
}

TEST(ReportProfile, OutsideRowHoldsWallTimeNoSpanCovers) {
  TempFile file("outside", spansReport(100.0, {{"flow", 60.0},
                                                {"flow/route", 20.0}}));
  const auto rows = profileByPath(file.path());
  EXPECT_DOUBLE_EQ(rows.at("flow").selfMs, 40.0);
  EXPECT_DOUBLE_EQ(rows.at("flow/route").selfMs, 20.0);
  EXPECT_DOUBLE_EQ(rows.at(kOutsideSpans).selfMs, 40.0);
  EXPECT_DOUBLE_EQ(rows.at("flow").share, 0.4);
  EXPECT_DOUBLE_EQ(rows.at("flow/route").share, 0.2);
  EXPECT_NEAR(shareSum(rows), 1.0, 1e-12);
}

TEST(ReportProfile, ParallelChildrenLeaveTheParentNoSelfTime) {
  // Two 8 ms children on two threads under a 10 ms parent.
  TempFile file("parallel", spansReport(10.0, {{"fit", 10.0},
                                               {"fit/a", 8.0},
                                               {"fit/b", 8.0}}));
  const auto rows = profileByPath(file.path());
  EXPECT_EQ(rows.at("fit").selfMs, 0.0);
  EXPECT_EQ(rows.at(kOutsideSpans).selfMs, 0.0);
  EXPECT_DOUBLE_EQ(rows.at("fit/a").share, 0.5);
  EXPECT_NEAR(shareSum(rows), 1.0, 1e-12);
}

TEST(ReportProfile, RowsComeLargestSelfTimeFirst) {
  TempFile file("order", spansReport(50.0, {{"a", 5.0}, {"b", 30.0}}));
  const std::vector<ProfileRow> rows = profileReport(file.path());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].path, "b");
  EXPECT_EQ(rows[1].path, kOutsideSpans);
  EXPECT_EQ(rows[2].path, "a");
}

TEST(ReportProfile, BadReportIsBadInput) {
  TempFile file("bad", "{\"schema_version\": 1}");
  std::ostringstream os;
  EXPECT_EQ(printProfile(file.path(), os), kExitBadInput);
  EXPECT_NE(os.str().find("bad input"), std::string::npos);
  EXPECT_EQ(printProfile("/nonexistent/report.json", os), kExitBadInput);
}

}  // namespace
}  // namespace hcp::support::report_diff
