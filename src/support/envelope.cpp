#include "support/envelope.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::support {

Fnv1a& Fnv1a::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return bytes(std::string_view(b, 8));
}

Fnv1a& Fnv1a::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return std::string(buf, 16);
}

namespace envelope {

namespace {

/// Throws hcp::Error with the concatenated `parts` unless `ok` — plain
/// messages, since a rejected artifact is a data error, not a code bug.
template <typename... Parts>
void require(bool ok, const Parts&... parts) {
  if (ok) return;
  std::ostringstream os;
  (os << ... << parts);
  throw Error(os.str());
}

bool isHex16(const std::string& s) {
  return s.size() == 16 &&
         s.find_first_not_of("0123456789abcdef") == std::string::npos;
}

/// Parses and checks one header line (without its '\n').
Header parseHeader(std::string_view line, const Format& format,
                   std::string_view expectedKey) {
  std::istringstream is{std::string(line)};
  std::string magic;
  std::uint32_t version = 0;
  Header h;
  // A failed read sets failbit and every later one then fails too.
  is >> magic;
  txt::readNumber(is, version);
  is >> h.key;
  h.counts.resize(format.numCounts);
  for (std::uint64_t& c : h.counts) txt::readNumber(is, c);
  txt::readNumber(is, h.payloadBytes);
  is >> h.digest;
  require(!is.fail() && magic == format.magic, "not a ", format.noun,
          " (malformed header)");
  std::string extra;
  require(!(is >> extra), format.noun, " header: trailing garbage '", extra,
          "'");
  require(version == format.version, format.noun,
          " schema version skew: version ", version, ", expected ",
          format.version);
  require(isHex16(h.key), format.noun, " header: malformed key '", h.key, "'");
  require(isHex16(h.digest), format.noun,
          " header: malformed payload digest");
  require(h.key == expectedKey, format.noun,
          " key mismatch: header says ", h.key, ", expected ", expectedKey);
  return h;
}

}  // namespace

void write(std::ostream& os, const Format& format, std::string_view key,
           const std::vector<std::uint64_t>& counts,
           std::string_view payload) {
  os << format.magic << ' ' << format.version << ' ' << key;
  for (const std::uint64_t c : counts) os << ' ' << c;
  os << ' ' << payload.size() << ' ' << Fnv1a().bytes(payload).hex() << '\n'
     << payload;
}

Header readHeader(const std::string& path, const Format& format,
                  std::string_view expectedKey) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "cannot open ", format.noun, " ", path);
  std::string line;
  // eof means the line ended without its '\n'.
  require(std::getline(is, line) && !is.eof(), "not a ", format.noun,
          " (missing header line)");
  return parseHeader(line, format, expectedKey);
}

Header unseal(std::string& bytes, const Format& format,
              std::string_view expectedKey) {
  const std::size_t nl = bytes.find('\n');
  require(nl != std::string::npos, "not a ", format.noun,
          " (missing header line)");
  Header h =
      parseHeader(std::string_view(bytes).substr(0, nl), format, expectedKey);
  const std::string_view payload = std::string_view(bytes).substr(nl + 1);
  require(payload.size() <= h.payloadBytes, "trailing garbage after ",
          format.noun, " payload");
  require(payload.size() == h.payloadBytes, "truncated ", format.noun,
          " (payload wanted ", h.payloadBytes, " bytes, got ", payload.size(),
          ")");
  const std::string digest = Fnv1a().bytes(payload).hex();
  require(digest == h.digest, format.noun,
          " payload digest mismatch (header ", h.digest, ", computed ", digest,
          ")");
  bytes.erase(0, nl + 1);
  return h;
}

}  // namespace envelope
}  // namespace hcp::support
