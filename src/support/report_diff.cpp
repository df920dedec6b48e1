#include "support/report_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"

namespace hcp::support::report_diff {

namespace {

using json::Value;

/// Loaded + schema-checked report. Construction throws hcp::Error with a
/// caller-facing message on any malformation.
struct Report {
  Value root;
  const Value* spans = nullptr;
  const Value* counters = nullptr;
  const Value* histograms = nullptr;

  explicit Report(const std::string& path) : root(json::parseFile(path)) {
    HCP_CHECK_MSG(root.isObject(), path << ": not a JSON object");
    const Value* version = root.find("schema_version");
    HCP_CHECK_MSG(version != nullptr && version->isNumber(),
                  path << ": missing schema_version (pre-versioning report?)");
    HCP_CHECK_MSG(
        version->asNumber() == telemetry::kReportSchemaVersion,
        path << ": unsupported schema_version " << version->asNumber()
             << " (this build understands "
             << telemetry::kReportSchemaVersion << ")");
    spans = root.find("spans");
    counters = root.find("counters");
    histograms = root.find("histograms");
    HCP_CHECK_MSG(spans != nullptr && spans->isArray(),
                  path << ": missing spans array");
    HCP_CHECK_MSG(counters != nullptr && counters->isObject(),
                  path << ": missing counters object");
    HCP_CHECK_MSG(histograms != nullptr && histograms->isObject(),
                  path << ": missing histograms object");
  }

  double wallMs() const {
    const Value* v = root.find("total_wall_ms");
    HCP_CHECK_MSG(v != nullptr && v->isNumber(), "missing total_wall_ms");
    return v->asNumber();
  }

  /// wall_ms of the span with `path`, or -1 when absent.
  double spanWallMs(const std::string& spanPath) const {
    for (const Value& e : spans->array) {
      const Value* p = e.find("path");
      if (p != nullptr && p->isString() && p->asString() == spanPath) {
        const Value* w = e.find("wall_ms");
        return w != nullptr && w->isNumber() ? w->asNumber() : -1.0;
      }
    }
    return -1.0;
  }
};

double pctChange(double base, double now) {
  if (base == 0.0) return now == 0.0 ? 0.0 : 100.0;
  return (now - base) / base * 100.0;
}

std::string fmtPct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

void jsonEscapeMin(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
      continue;
    }
    os << c;
  }
}

}  // namespace

int compareReportFiles(const std::string& basePath,
                       const std::string& newPath, const Options& options,
                       std::ostream& out) {
  std::unique_ptr<Report> baseHolder, newHolder;
  try {
    baseHolder = std::make_unique<Report>(basePath);
    newHolder = std::make_unique<Report>(newPath);
  } catch (const hcp::Error& e) {
    out << "compare-reports: bad input: " << e.what() << "\n";
    return kExitBadInput;
  }
  const Report& base = *baseHolder;
  const Report& fresh = *newHolder;

  std::vector<std::string> regressions;
  bool countersEqual = true;
  bool histogramCountsEqual = true;

  double baseWall = 0.0, newWall = 0.0;
  try {
    baseWall = base.wallMs();
    newWall = fresh.wallMs();
  } catch (const hcp::Error& e) {
    out << "compare-reports: bad input: " << e.what() << "\n";
    return kExitBadInput;
  }

  const double wallPct = pctChange(baseWall, newWall);
  out << "wall    total_wall_ms: " << baseWall << " -> " << newWall << "  ("
      << fmtPct(wallPct) << ")";
  if (options.maxWallRegressPct >= 0.0) {
    out << "  [limit " << fmtPct(options.maxWallRegressPct) << "]";
    if (wallPct > options.maxWallRegressPct)
      regressions.push_back("total_wall_ms grew " + fmtPct(wallPct) +
                            " (limit " + fmtPct(options.maxWallRegressPct) +
                            ")");
  }
  out << "\n";

  // Spans: informational wall-time deltas over the union of paths, in base
  // order then new-only.
  std::vector<std::string> spanPaths;
  std::set<std::string> seen;
  for (const Report* r : {&base, &fresh}) {
    for (const Value& e : r->spans->array) {
      const Value* p = e.find("path");
      if (p != nullptr && p->isString() && seen.insert(p->asString()).second)
        spanPaths.push_back(p->asString());
    }
  }
  for (const std::string& path : spanPaths) {
    const double b = base.spanWallMs(path);
    const double n = fresh.spanWallMs(path);
    out << "span    " << path << ": ";
    if (b < 0.0) out << "(absent)";
    else out << b;
    out << " -> ";
    if (n < 0.0) out << "(absent)";
    else out << n;
    if (b >= 0.0 && n >= 0.0) out << " ms  (" << fmtPct(pctChange(b, n)) << ")";
    out << "\n";
  }

  // Counters: exact integer comparison over the union of names.
  std::vector<std::string> counterNames;
  seen.clear();
  for (const Report* r : {&base, &fresh})
    for (const auto& [name, v] : r->counters->object)
      if (seen.insert(name).second) counterNames.push_back(name);
  for (const std::string& name : counterNames) {
    const Value* b = base.counters->find(name);
    const Value* n = fresh.counters->find(name);
    const bool equal = b != nullptr && n != nullptr && b->isNumber() &&
                       n->isNumber() && b->asNumber() == n->asNumber();
    out << "counter " << name << ": ";
    if (b != nullptr && b->isNumber()) out << b->asNumber();
    else out << "(absent)";
    out << " -> ";
    if (n != nullptr && n->isNumber()) out << n->asNumber();
    else out << "(absent)";
    if (!equal) {
      countersEqual = false;
      out << "  ** CHANGED";
    }
    out << "\n";
  }

  // Histograms: distribution summaries. Counts gate (deterministic); the
  // shape fields are printed so a human can see *how* a stage shifted.
  std::vector<std::string> histNames;
  seen.clear();
  for (const Report* r : {&base, &fresh})
    for (const auto& [name, v] : r->histograms->object)
      if (seen.insert(name).second) histNames.push_back(name);
  for (const std::string& name : histNames) {
    const Value* b = base.histograms->find(name);
    const Value* n = fresh.histograms->find(name);
    out << "hist    " << name << ":";
    bool changed = false;
    for (const char* field : {"count", "sum", "min", "max", "p50", "p90",
                              "p99"}) {
      const Value* bf = b != nullptr ? b->find(field) : nullptr;
      const Value* nf = n != nullptr ? n->find(field) : nullptr;
      const double bv = bf != nullptr && bf->isNumber() ? bf->asNumber()
                                                        : std::nan("");
      const double nv = nf != nullptr && nf->isNumber() ? nf->asNumber()
                                                        : std::nan("");
      const bool fieldEqual = bv == nv;  // NaN != NaN: absent counts as change
      if (!fieldEqual) changed = true;
      if (std::string_view(field) == "count" && !fieldEqual)
        histogramCountsEqual = false;
      out << " " << field << " " << bv << "->" << nv;
    }
    if (changed) out << "  ** CHANGED";
    out << "\n";
  }

  if (options.requireCountersEqual) {
    if (!countersEqual)
      regressions.push_back("counter totals differ (see ** CHANGED lines)");
    if (!histogramCountsEqual)
      regressions.push_back(
          "histogram observation counts differ (see ** CHANGED lines)");
  }

  for (const std::string& r : regressions) out << "REGRESSION: " << r << "\n";
  const bool ok = regressions.empty();
  out << (ok ? "compare-reports: OK" : "compare-reports: FAILED") << " ("
      << counterNames.size() << " counters, " << histNames.size()
      << " histograms, " << spanPaths.size() << " spans)\n";

  if (!options.benchOutPath.empty()) {
    // --bench-out is a user-requested artifact: verified and atomic, with
    // an unchecked-write failure raising hcp::IoError rather than handing
    // CI a truncated JSON summary that parses as a mystery later.
    txt::CheckedFileWriter writer(options.benchOutPath, "benchout");
    std::ostream& bench = writer.stream();
    bench << "{\n  \"schema_version\": " << telemetry::kReportSchemaVersion
          << ",\n  \"base\": \"";
    jsonEscapeMin(bench, basePath);
    bench << "\",\n  \"new\": \"";
    jsonEscapeMin(bench, newPath);
    bench << "\",\n  \"total_wall_ms\": {\"base\": " << baseWall
          << ", \"new\": " << newWall << ", \"delta_pct\": " << wallPct
          << "},\n  \"counters_equal\": "
          << (countersEqual ? "true" : "false")
          << ",\n  \"histogram_counts_equal\": "
          << (histogramCountsEqual ? "true" : "false")
          << ",\n  \"spans_compared\": " << spanPaths.size()
          << ",\n  \"histograms\": {";
    // Percentile summaries per histogram, base -> new, so a CI artifact
    // carries the distribution shift, not just the equal/changed verdict.
    // Absent sides render as null (a new histogram has no base percentile).
    for (std::size_t h = 0; h < histNames.size(); ++h) {
      const std::string& name = histNames[h];
      const Value* b = base.histograms->find(name);
      const Value* n = fresh.histograms->find(name);
      bench << (h == 0 ? "" : ", ") << "\n    \"";
      jsonEscapeMin(bench, name);
      bench << "\": {";
      bool first = true;
      for (const char* field : {"p50", "p90", "p99"}) {
        for (const auto& [side, rep] :
             {std::pair<const char*, const Value*>{"base", b},
              std::pair<const char*, const Value*>{"new", n}}) {
          const Value* f = rep != nullptr ? rep->find(field) : nullptr;
          bench << (first ? "" : ", ") << '"' << field << '_' << side
                << "\": ";
          if (f != nullptr && f->isNumber()) bench << f->asNumber();
          else bench << "null";
          first = false;
        }
      }
      bench << '}';
    }
    bench << (histNames.empty() ? "" : "\n  ") << "},\n  \"regressions\": [";
    for (std::size_t i = 0; i < regressions.size(); ++i) {
      bench << (i == 0 ? "" : ", ") << '"';
      jsonEscapeMin(bench, regressions[i]);
      bench << '"';
    }
    bench << "],\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
    writer.commit();
  }

  return ok ? kExitOk : kExitRegression;
}

std::vector<ProfileRow> profileReport(const std::string& path) {
  const Report report(path);
  std::vector<ProfileRow> rows;
  std::map<std::string, std::size_t> rowOf;
  for (const Value& e : report.spans->array) {
    const Value* p = e.find("path");
    const Value* count = e.find("count");
    const Value* wall = e.find("wall_ms");
    HCP_CHECK_MSG(p != nullptr && p->isString() && count != nullptr &&
                      count->isNumber() && wall != nullptr &&
                      wall->isNumber(),
                  path << ": span entry without path, count or wall_ms");
    HCP_CHECK_MSG(rowOf.emplace(p->asString(), rows.size()).second,
                  path << ": span " << p->asString() << " listed twice");
    rows.push_back({p->asString(),
                    static_cast<std::uint64_t>(count->asNumber()),
                    wall->asNumber(), wall->asNumber(), 0.0});
  }
  // Subtract each span from its parent (the path up to its last '/'); a
  // span without a listed parent is top-level.
  double topLevelMs = 0.0;
  for (const ProfileRow& row : rows) {
    const std::size_t slash = row.path.rfind('/');
    const auto parent = slash == std::string::npos
                            ? rowOf.end()
                            : rowOf.find(row.path.substr(0, slash));
    if (parent == rowOf.end()) topLevelMs += row.totalMs;
    else rows[parent->second].selfMs -= row.totalMs;
  }
  rows.push_back({kOutsideSpans, 0, 0.0,
                  std::max(0.0, report.wallMs() - topLevelMs), 0.0});
  double runMs = 0.0;
  for (ProfileRow& row : rows) {
    row.selfMs = std::max(0.0, row.selfMs);
    runMs += row.selfMs;
  }
  if (runMs > 0.0)
    for (ProfileRow& row : rows) row.share = row.selfMs / runMs;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProfileRow& a, const ProfileRow& b) {
                     return a.selfMs > b.selfMs;
                   });
  return rows;
}

int printProfile(const std::string& path, std::ostream& out) {
  std::vector<ProfileRow> rows;
  try {
    rows = profileReport(path);
  } catch (const hcp::Error& e) {
    out << "profile: bad input: " << e.what() << "\n";
    return kExitBadInput;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12s %8s\n", "span",
                "calls", "total ms", "self ms", "share");
  out << buf;
  for (const ProfileRow& row : rows) {
    // The outside row is no span: it has no calls and no total of its own.
    char calls[32] = "-", total[32] = "-";
    if (row.path != kOutsideSpans) {
      std::snprintf(calls, sizeof calls, "%llu",
                    static_cast<unsigned long long>(row.count));
      std::snprintf(total, sizeof total, "%.2f", row.totalMs);
    }
    std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12.2f %7.1f%%\n",
                  row.path.c_str(), calls, total, row.selfMs,
                  100.0 * row.share);
    out << buf;
  }
  return kExitOk;
}

}  // namespace hcp::support::report_diff
