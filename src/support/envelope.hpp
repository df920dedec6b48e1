// The sealed envelope shared by every content-addressed artifact — flow-cache
// entries and dataset shards (format and checks: DESIGN.md §13):
//
//   <magic> <version> <key> [<count> ...] <payload-bytes> <payload-fnv1a>\n
//   <payload bytes>
//
// Every failed check throws hcp::Error saying which one; the failure policy
// is the caller's (the flow cache counts a miss, shards name the file).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hcp::support {

/// Streaming FNV-1a (64 bit). Deterministic across platforms and runs —
/// exactly what a content-addressed key needs (no pointer values, no
/// iteration-order dependence; callers feed canonical byte sequences).
class Fnv1a {
 public:
  Fnv1a& bytes(std::string_view data) {
    for (const char c : data) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v);
  /// Hashes the IEEE-754 bit pattern (distinguishes -0.0 from 0.0 — the
  /// serializers print them differently, so the key must too).
  Fnv1a& f64(double v);
  /// Length-prefixed so ("ab","c") and ("a","bc") digest differently.
  Fnv1a& str(std::string_view s) { return u64(s.size()).bytes(s); }

  std::uint64_t digest() const { return hash_; }
  /// 16-char lower-case hex of digest(); used as the artifact file stem.
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

namespace envelope {

/// The header shape of one artifact kind.
struct Format {
  const char* magic;         ///< first header token, e.g. "hcp-shard"
  std::uint32_t version;     ///< the only schema version the reader accepts
  std::size_t numCounts;     ///< count fields between key and payload size
  const char* noun;          ///< names the artifact in error messages
};

/// A parsed and checked header line.
struct Header {
  std::string key;
  std::vector<std::uint64_t> counts;  ///< Format::numCounts values
  std::uint64_t payloadBytes = 0;
  std::string digest;
};

/// Writes the header line for `payload` (with Format::numCounts `counts`)
/// followed by the payload bytes.
void write(std::ostream& os, const Format& format, std::string_view key,
           const std::vector<std::uint64_t>& counts, std::string_view payload);

/// Reads and checks only the header line of the file at `path` — for scans
/// that need the key and counts without touching the payload. The stored
/// key must equal `expectedKey`, here and in unseal().
Header readHeader(const std::string& path, const Format& format,
                  std::string_view expectedKey);

/// Checks the whole sealed file held in `bytes`, then strips its header in
/// place so `bytes` holds exactly the payload (no second payload buffer).
Header unseal(std::string& bytes, const Format& format,
              std::string_view expectedKey);

}  // namespace envelope
}  // namespace hcp::support
