#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "support/json.hpp"

namespace perfbench {

std::uint64_t flowSeedOf(std::uint64_t workloadSeed, std::uint64_t round) {
  // splitmix64 finalizer: nearby seeds and rounds give unrelated flow seeds.
  std::uint64_t z = workloadSeed + 0x9e3779b97f4a7c15ULL * (round + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffULL;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Result::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++checksFailed;
  if (checksFailed <= 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::noteSample(const std::string& what, const std::vector<double>& v,
                        const std::string& unit) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: median %.4g %s (quartiles %.4g..%.4g, %zu samples)",
                what.c_str(), median(v), unit.c_str(), quantile(v, 0.25),
                quantile(v, 0.75), v.size());
  note(buf);
}

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Total length of the union of [start, end) intervals, clipped to [lo, hi).
std::uint64_t unionLength(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv, std::uint64_t lo,
    std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, curStart = 0, curEnd = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
    if (e <= s) continue;
    if (open && s <= curEnd) {
      curEnd = std::max(curEnd, e);
      continue;
    }
    if (open) total += curEnd - curStart;
    curStart = s;
    curEnd = e;
    open = true;
  }
  if (open) total += curEnd - curStart;
  return total;
}

}  // namespace

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          std::string rid, std::size_t lanes) {
  if (!enabled_) return -1;
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  Span s;
  s.name = std::move(name);
  s.rid = std::move(rid);
  s.parent = parent;
  s.lanes = lanes;
  std::lock_guard<std::mutex> lock(mu_);
  s.thread = threadIds_.emplace(tid, threadIds_.size()).first->second;
  s.startNs = nowNs();
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const std::uint64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endNs = t;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f",
                  s.thread, static_cast<double>(s.startNs - origin) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3);
    os << (i ? ",\n" : "\n") << "{\"name\":\""
       << hcp::support::json::escape(s.name) << "\"," << buf
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":\"" << hcp::support::json::escape(s.rid) << "\"}}";
  }
  os << "\n]}\n";
}

double PassProfile::accountedShare() const {
  if (passMs <= 0.0) return 0.0;
  double attributed = waitingMs;
  for (const auto& [name, t] : layers) attributed += t.attributedMs;
  return attributed / passMs;
}

PassProfile profilePass(const Tracer& tracer, std::int64_t root) {
  const auto& spans = tracer.spans();
  const std::size_t n = spans.size();
  const std::size_t r = static_cast<std::size_t>(root);
  std::vector<std::vector<std::size_t>> children(n);
  std::vector<bool> inTree(n, false);
  std::vector<double> scale(n, 1.0);  // 1 / product of ancestor lanes
  inTree[r] = true;
  for (std::size_t i = r + 1; i < n; ++i) {
    const std::int64_t p = spans[i].parent;
    if (p < root || !inTree[static_cast<std::size_t>(p)]) continue;
    const std::size_t pi = static_cast<std::size_t>(p);
    inTree[i] = true;
    children[pi].push_back(i);
    scale[i] = scale[pi] / static_cast<double>(spans[pi].lanes);
  }

  PassProfile prof;
  prof.passMs = ms(spans[r].endNs - spans[r].startNs);
  for (std::size_t i = r; i < n; ++i) {
    if (!inTree[i]) continue;
    const Tracer::Span& s = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t c : children[i])
      iv.emplace_back(spans[c].startNs, spans[c].endNs);
    const std::uint64_t dur = s.endNs - s.startNs;
    const std::uint64_t covered = unionLength(iv, s.startNs, s.endNs);
    const double selfMs = ms(dur - covered);
    LayerTotals& t = prof.layers[s.name];
    ++t.calls;
    t.selfMs += selfMs;
    t.attributedMs += selfMs * scale[i];
    prof.durationsMs[s.name].push_back(ms(dur));

    if (s.lanes > 1) {
      // Idle pool capacity while this region had work in flight: per thread,
      // the region time none of its children covered on that thread.
      std::map<std::size_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
          byThread;
      for (std::size_t c : children[i])
        byThread[spans[c].thread].emplace_back(spans[c].startNs, spans[c].endNs);
      std::uint64_t busy = 0;
      for (const auto& [tid, tiv] : byThread)
        busy += unionLength(tiv, s.startNs, s.endNs);
      const double capacityMs = ms(dur) * static_cast<double>(s.lanes);
      // The stretch with no child in flight is already the region's own
      // self time; the rest of the idle capacity is waiting.
      const double idleMs =
          capacityMs - ms(busy) - selfMs * static_cast<double>(s.lanes);
      prof.waitingMs += idleMs / static_cast<double>(s.lanes) * scale[i];
    }
  }
  return prof;
}

namespace {

template <typename Fn>
double medianOver(const std::vector<PassProfile>& passes, Fn&& pick) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(pick(p));
  return median(v);
}

}  // namespace

double TraceSummary::selfMs(const std::string& layer) const {
  return medianOver(passes_, [&](const PassProfile& p) {
    auto it = p.layers.find(layer);
    return it == p.layers.end() ? 0.0 : it->second.selfMs;
  });
}

double TraceSummary::perCallMs(const std::string& layer) const {
  return medianOver(passes_, [&](const PassProfile& p) {
    auto it = p.layers.find(layer);
    return it == p.layers.end() || it->second.calls == 0
               ? 0.0
               : it->second.selfMs / static_cast<double>(it->second.calls);
  });
}

double TraceSummary::share(const std::string& layer) const {
  return medianOver(passes_, [&](const PassProfile& p) {
    auto it = p.layers.find(layer);
    return it == p.layers.end() || p.passMs <= 0.0
               ? 0.0
               : it->second.attributedMs / p.passMs;
  });
}

double TraceSummary::calls(const std::string& layer) const {
  return medianOver(passes_, [&](const PassProfile& p) {
    auto it = p.layers.find(layer);
    return it == p.layers.end() ? 0.0 : static_cast<double>(it->second.calls);
  });
}

double TraceSummary::callMs(const std::string& layer) const {
  std::vector<double> all;
  for (const auto& p : passes_) {
    auto it = p.durationsMs.find(layer);
    if (it != p.durationsMs.end())
      all.insert(all.end(), it->second.begin(), it->second.end());
  }
  return median(all);
}

double TraceSummary::passMs() const {
  return medianOver(passes_, [](const PassProfile& p) { return p.passMs; });
}

double TraceSummary::waitingMs() const {
  return medianOver(passes_, [](const PassProfile& p) { return p.waitingMs; });
}

void TraceSummary::report(Result& r, double untracedPassMs) const {
  if (passes_.empty()) return;
  std::map<std::string, bool> names;
  for (const auto& p : passes_)
    for (const auto& [name, t] : p.layers) names[name] = true;
  const double pass = passMs();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "traced passes: %zu, median traced pass %.1f ms (untraced "
                "%.1f ms)",
                passes_.size(), pass, untracedPassMs);
  r.note(buf);
  r.note("  layer                        calls/pass  self ms/pass  share of pass");
  for (const auto& [name, unused] : names) {
    std::snprintf(buf, sizeof buf, "  %-28s %10.0f %13.2f %13.1f%%",
                  name.c_str(), calls(name), selfMs(name),
                  100.0 * share(name));
    r.note(buf);
  }
  std::snprintf(buf, sizeof buf, "  %-28s %10s %13.2f %13.1f%%", "(waiting)", "-",
                waitingMs(), pass > 0 ? 100.0 * waitingMs() / pass : 0.0);
  r.note(buf);
  std::vector<double> acc;
  for (const auto& p : passes_) acc.push_back(p.accountedShare());
  const auto [lo, hi] = std::minmax_element(acc.begin(), acc.end());
  std::snprintf(buf, sizeof buf,
                "self times + waiting account for %.4f..%.4f of the traced "
                "pass (base: %zu passes)",
                *lo, *hi, passes_.size());
  r.note(buf);
  r.check(*lo > 0.9 && *hi < 1.1,
          "per-layer self times + waiting account for the traced pass");
  r.add("trace.accounted_share", median(acc), "ratio");
  r.add("trace.waiting_ms", waitingMs(), "ms");
  r.add("trace.overhead_ms", pass - untracedPassMs, "ms");
}

}  // namespace perfbench
