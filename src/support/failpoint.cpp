#include "support/failpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace hcp::support::failpoint {

namespace {

/// One spec entry. `remaining` counts down for `site:N` entries;
/// `probability < 0` means "not a probabilistic entry".
struct Entry {
  std::string site;
  std::uint64_t remaining = 0;  ///< meaningful when counted
  bool counted = false;         ///< true for site:N entries
  double probability = -1.0;    ///< in [0,1] for site:P entries
  std::uint64_t rngState = 0;   ///< per-entry deterministic PRNG
  std::uint64_t fired = 0;
};

struct Config {
  std::mutex mu;
  std::vector<Entry> entries;
  std::string spec;
};

Config& config() {
  static Config c;
  return c;
}

/// FNV-1a of the site name: a stable per-entry PRNG seed, so a
/// probabilistic entry fires on the same hit sequence in every run.
std::uint64_t seedFor(std::string_view site) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h | 1;  // never zero
}

/// xorshift64*: tiny, deterministic, good enough for fire/pass decisions.
double nextUniform(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  const std::uint64_t bits = state * 2685821657736338717ULL;
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// `entry` matches `query` when equal or a dot-prefix ("a.b" matches
/// "a.b.c" but not "a.bc").
bool matches(const std::string& entry, std::string_view query) {
  if (query.size() < entry.size()) return false;
  if (query.compare(0, entry.size(), entry) != 0) return false;
  return query.size() == entry.size() || query[entry.size()] == '.';
}

Entry parseEntry(const std::string& text) {
  Entry e;
  const std::size_t colon = text.find(':');
  e.site = text.substr(0, colon == std::string::npos ? text.size() : colon);
  HCP_CHECK_MSG(!e.site.empty(),
                "failpoint spec: empty site name in entry '" << text << "'");
  HCP_CHECK_MSG(e.site.find_first_of(" \t:") == std::string::npos,
                "failpoint spec: malformed site name '" << e.site << "'");
  if (colon == std::string::npos) return e;  // fire every hit

  const std::string arg = text.substr(colon + 1);
  HCP_CHECK_MSG(!arg.empty(), "failpoint spec: entry '"
                                  << text << "' has ':' but no count/prob");
  if (arg.find_first_of(".eE") == std::string::npos) {
    // All-digit argument: a hit count. env::parseU64 rejects signs,
    // whitespace and overflow (the old strtoull path accepted "+3", " 3"
    // and silently clamped huge counts).
    const std::optional<std::uint64_t> n = env::parseU64(arg);
    HCP_CHECK_MSG(n.has_value(),
                  "failpoint spec: '" << arg << "' is not a count (entry '"
                                      << text << "')");
    e.counted = true;
    e.remaining = *n;
  } else {
    // Argument with '.'/'e': a firing probability. env::parseF64 rejects
    // trailing garbage, hex floats ("0x.8p1"), "nan"/"inf" and overflow —
    // strtod accepted all of those.
    const std::optional<double> p = env::parseF64(arg);
    HCP_CHECK_MSG(p.has_value() && *p >= 0.0 && *p <= 1.0,
                  "failpoint spec: '" << arg
                                      << "' is not a probability in [0,1] "
                                         "(entry '"
                                      << text << "')");
    e.probability = *p;
    e.rngState = seedFor(e.site);
  }
  return e;
}

}  // namespace

namespace detail {

std::atomic<std::uint32_t> gNumArmed{0};

bool shouldFailSlow(std::string_view site) {
  Config& c = config();
  std::lock_guard<std::mutex> lk(c.mu);
  for (Entry& e : c.entries) {
    if (!matches(e.site, site)) continue;
    bool fire;
    if (e.probability >= 0.0) {
      fire = nextUniform(e.rngState) < e.probability;
    } else if (e.counted) {
      fire = e.remaining > 0;
      if (fire) --e.remaining;
    } else {
      fire = true;
    }
    if (fire) {
      ++e.fired;
      telemetry::count(telemetry::Counter::FailpointsFired);
    }
    return fire;  // first matching entry decides
  }
  return false;
}

}  // namespace detail

void configure(const std::string& spec) {
  std::vector<Entry> entries;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string text = spec.substr(pos, comma - pos);
    if (!text.empty()) entries.push_back(parseEntry(text));
    pos = comma + 1;
  }
  Config& c = config();
  std::lock_guard<std::mutex> lk(c.mu);
  c.entries = std::move(entries);
  c.spec = spec;
  detail::gNumArmed.store(static_cast<std::uint32_t>(c.entries.size()),
                          std::memory_order_relaxed);
}

void clear() { configure(""); }

std::uint64_t firedCount(std::string_view site) {
  Config& c = config();
  std::lock_guard<std::mutex> lk(c.mu);
  for (const Entry& e : c.entries)
    if (e.site == site) return e.fired;
  return 0;
}

std::vector<std::string> sites() {
  Config& c = config();
  std::lock_guard<std::mutex> lk(c.mu);
  std::vector<std::string> names;
  names.reserve(c.entries.size());
  for (const Entry& e : c.entries) names.push_back(e.site);
  return names;
}

std::string initFromFlag(std::string flagValue) {
  std::string spec = std::move(flagValue);
  if (spec.empty()) {
    if (const char* env = std::getenv("HCP_FAILPOINTS")) spec = env;
  }
  if (!spec.empty()) {
    try {
      configure(spec);
    } catch (const hcp::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
  return spec;
}

namespace {
std::string currentSpec() {
  Config& c = config();
  std::lock_guard<std::mutex> lk(c.mu);
  return c.spec;
}
}  // namespace

ScopedFailpoints::ScopedFailpoints(const std::string& spec)
    : prev_(currentSpec()) {
  configure(spec);
}

ScopedFailpoints::~ScopedFailpoints() { configure(prev_); }

}  // namespace hcp::support::failpoint
