// Shared primitives of the line-oriented text serializers (ir/hls/rtl/fpga/
// trace `serialize.hpp`, the ml model and map formats) and of the whole-file
// readers every artifact loader goes through. The format goals are the ones
// the flow cache needs:
//
//   - *exact* round trips: doubles are printed with 17 significant digits
//     (writers call `preparePrecision` once per document, and `writeNum`
//     prints the same bytes without the stream's formatting), so
//     save -> load -> save reproduces the original file byte for byte and
//     loaded values are bit-identical to the saved ones;
//   - robust strings: length-prefixed raw bytes (`5 hello`), so names with
//     spaces or any other byte survive unquoted;
//   - loud failures: every read checks the stream and throws hcp::Error on
//     truncation or token mismatch — a corrupt document can never parse into
//     a half-filled struct silently.
//
// Numbers are read straight from the stream buffer, not through
// `operator>>` (locale num_get). After skipping whitespace, `read<T>` takes
// the maximal run of number characters `[0-9+-.eE]` as the token, leaves the
// first other character unread and converts the token with
// `std::from_chars`, which must consume all of it (one leading `+` is
// dropped first, as `operator>>` accepts it). The contract:
//
//   - bit-exact for writer tokens: every token the writers emit (integers at
//     their limits, doubles at 17 significant digits including ±0,
//     subnormals and DBL_MAX) reads back as the identical value;
//   - never more lenient than `operator>>`: a token it rejects (`nan`,
//     `inf`, `1e`, `1e400`, an empty token, end of input) is rejected too,
//     and eofbit/failbit are set as it would set them;
//   - two deliberate tightenings, reachable only from hand-edited files: a
//     `-` on an unsigned value (`operator>>` wrapped `-1` to the maximum)
//     and a double that underflows to zero (`1e-400`, which it read as 0)
//     are rejected. Tokens `operator>>` would read only in part (`12.5` for
//     an integer) fail whole as well.
//
// Keywords (`expect`) are compared in place; a string is built only for the
// error message.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace hcp::support::txt {

/// Fail-safe file writer used by every artifact-producing site (model save,
/// run report, trace timeline, CSV tables, flow-cache entries). The contract
/// the bare `std::ofstream` writers violated:
///
///   - *atomic*: bytes go to `<path>.tmp.<pid>.<ticket>`; only commit()
///     renames into place, so a crash, an exception or ENOSPC mid-write can
///     never leave a truncated file under the final name. The destructor
///     removes the temp file when commit() was not reached.
///   - *verified*: open, write, flush, close and rename are all checked;
///     any failure throws hcp::IoError naming the destination path and the
///     errno reason. A short write on a full disk raises at commit() instead
///     of surfacing as a corrupt artifact at load time.
///   - *injectable*: each boundary consults a named failpoint
///     (`<site>.open`, `<site>.write`, `<site>.rename` — see
///     support/failpoint.hpp), so tests and CI can exercise every failure
///     path deterministically.
///
/// Failure policy is the caller's: artifact writers let the IoError
/// propagate (exit code 5), the flow cache catches it and degrades to
/// recompute (DESIGN.md §14).
class CheckedFileWriter {
 public:
  CheckedFileWriter(std::string path, std::string site)
      : path_(std::move(path)), site_(std::move(site)) {
    static std::atomic<std::uint64_t> ticket{0};
    std::ostringstream tmpName;
    tmpName << path_ << ".tmp." << static_cast<unsigned long>(::getpid())
            << "." << ticket.fetch_add(1, std::memory_order_relaxed);
    tmp_ = tmpName.str();
    if (failpoint::shouldFail(site_ + ".open"))
      fail("cannot open", EACCES, true);
    errno = 0;
    os_.open(tmp_, std::ios::binary | std::ios::trunc);
    if (!os_.good()) fail("cannot open", errno, false);
  }

  ~CheckedFileWriter() {
    if (committed_) return;
    os_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);  // best effort; never throws
  }

  CheckedFileWriter(const CheckedFileWriter&) = delete;
  CheckedFileWriter& operator=(const CheckedFileWriter&) = delete;

  /// The buffered stream. Callers need not check it between writes —
  /// commit() observes any sticky error bit.
  std::ostream& stream() { return os_; }
  const std::string& path() const { return path_; }

  /// Flush + close + rename into place, verifying each step. Throws
  /// hcp::IoError (and removes the temp file) on any failure, including a
  /// failure that happened during earlier buffered writes.
  void commit() {
    if (failpoint::shouldFail(site_ + ".write"))
      os_.setstate(std::ios::badbit);  // as if a buffer flush hit ENOSPC
    errno = 0;
    os_.flush();
    if (!os_.good()) fail("write failed for", errno != 0 ? errno : ENOSPC,
                          true);
    os_.close();
    if (os_.fail()) fail("close failed for", errno != 0 ? errno : ENOSPC,
                         true);
    std::error_code ec;
    if (failpoint::shouldFail(site_ + ".rename"))
      ec = std::make_error_code(std::errc::no_space_on_device);
    else
      std::filesystem::rename(tmp_, path_, ec);
    if (ec) {
      std::error_code ignored;
      std::filesystem::remove(tmp_, ignored);
      throw IoError("cannot move " + tmp_ + " into place at " + path_ +
                        ": " + ec.message(),
                    path_);
    }
    committed_ = true;
  }

 private:
  [[noreturn]] void fail(const char* verb, int err, bool removeTmp) {
    if (removeTmp) {
      os_.close();
      std::error_code ec;
      std::filesystem::remove(tmp_, ec);
    }
    committed_ = true;  // nothing left to clean up in the destructor
    std::ostringstream msg;
    msg << verb << ' ' << path_ << ": "
        << (err != 0 ? std::strerror(err) : "stream error");
    throw IoError(msg.str(), path_);
  }

  std::string path_, site_, tmp_;
  std::ofstream os_;
  bool committed_ = false;
};

/// Sets the float formatting contract of a serialized document. Call at the
/// top of every public write entry point.
inline void preparePrecision(std::ostream& os) { os.precision(17); }

namespace detail {

inline bool isSpace(int c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

inline bool isNumberChar(int c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

/// Skips whitespace as `operator>>`'s sentry does: false (with
/// eofbit|failbit set) when the stream is not good or ends first.
inline bool skipSpace(std::istream& is) {
  if (!is.good()) {
    is.setstate(std::ios::failbit);
    return false;
  }
  std::streambuf& sb = *is.rdbuf();
  int c = sb.sgetc();
  while (c != std::char_traits<char>::eof() && isSpace(c)) c = sb.snextc();
  if (c != std::char_traits<char>::eof()) return true;
  is.setstate(std::ios::eofbit | std::ios::failbit);
  return false;
}

/// Consumes the next token (whitespace-free or number-character run, per
/// `keep`), storing it in `buf` while it fits and in `spill` beyond that.
/// Sets eofbit when the token runs to the end of input. Returns its view.
template <std::size_t N, typename Keep>
std::string_view takeToken(std::istream& is, char (&buf)[N],
                           std::string& spill, Keep keep) {
  std::streambuf& sb = *is.rdbuf();
  std::size_t n = 0;
  int c = sb.sgetc();
  for (; c != std::char_traits<char>::eof() && keep(c); c = sb.snextc()) {
    if (n < N) {
      buf[n++] = static_cast<char>(c);
    } else {
      if (spill.empty()) spill.assign(buf, N);
      spill.push_back(static_cast<char>(c));
    }
  }
  if (c == std::char_traits<char>::eof()) is.setstate(std::ios::eofbit);
  return spill.empty() ? std::string_view(buf, n) : std::string_view(spill);
}

}  // namespace detail

/// Reads one whitespace-delimited token and requires it to equal `token`.
/// The match is checked in place; only a mismatch builds the offending
/// token, whole, for the message.
inline void expect(std::istream& is, const char* token) {
  const std::string_view want(token);
  std::size_t i = 0;
  bool matched = false;
  if (detail::skipSpace(is)) {
    std::streambuf& sb = *is.rdbuf();
    int c = sb.sgetc();
    for (; i < want.size() && c == static_cast<unsigned char>(want[i]);
         c = sb.snextc())
      ++i;
    const bool atEof = c == std::char_traits<char>::eof();
    if (atEof) is.setstate(std::ios::eofbit);
    matched = i == want.size() && (atEof || detail::isSpace(c));
  }
  if (matched) return;
  char buf[64];
  std::string spill;
  const std::string_view rest =
      is.good() ? detail::takeToken(is, buf, spill,
                                    [](int c) { return !detail::isSpace(c); })
                : std::string_view();
  HCP_CHECK_MSG(matched, "serialized document: expected '"
                             << token << "', got '" << want.substr(0, i)
                             << rest << "'");
}

/// As `is >> v` for an arithmetic `v`, under the number contract in the
/// header comment: false, with failbit set, when the token is rejected.
template <typename T>
bool readNumber(std::istream& is, T& v) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
                    !std::is_same_v<T, char> &&
                    !std::is_same_v<T, signed char> &&
                    !std::is_same_v<T, unsigned char>,
                "readNumber takes integer and floating-point numbers");
  if (!detail::skipSpace(is)) return false;
  char buf[64];
  std::string spill;
  std::string_view tok = detail::takeToken(
      is, buf, spill, [](int c) { return detail::isNumberChar(c); });
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '+' && tok[1] != '-')
    tok.remove_prefix(1);
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec == std::errc() && ptr == end) return true;
  is.setstate(std::ios::failbit);
  return false;
}

/// Checked read of one value: numbers through readNumber, anything else
/// (the model-kind words) through `operator>>`.
template <typename T>
T read(std::istream& is, const char* what) {
  T v{};
  bool ok = false;
  if constexpr (std::is_arithmetic_v<T>)
    ok = readNumber(is, v);
  else
    ok = static_cast<bool>(is >> v);
  HCP_CHECK_MSG(ok, "serialized document: truncated while reading " << what);
  return v;
}

/// Checked reads of several values in order: `readAll(is, what, a, b, c)`.
template <typename... T>
void readAll(std::istream& is, const char* what, T&... vals) {
  ((vals = read<T>(is, what)), ...);
}

/// Bools as 0/1 (operator>> would also accept them, but keep writes explicit).
inline void writeBool(std::ostream& os, bool b) { os << (b ? 1 : 0); }

inline bool readBool(std::istream& is, const char* what) {
  const int v = read<int>(is, what);
  HCP_CHECK_MSG(v == 0 || v == 1, what << ": bool must be 0 or 1, got " << v);
  return v != 0;
}

/// Counts and lengths in a document are untrusted: at most `kMaxReserve`
/// elements (or string bytes) are allocated ahead of the data that fills
/// them, so a corrupt count fails as truncation, never as bad_alloc.
inline constexpr std::size_t kMaxReserve = std::size_t{1} << 16;

/// Length-prefixed string: `<size> <raw bytes>`. The single separator after
/// the size is consumed exactly, so the bytes may contain anything.
inline void writeStr(std::ostream& os, const std::string& s) {
  os << s.size() << ' ' << s;
}

inline std::string readStr(std::istream& is, const char* what) {
  const auto n = read<std::size_t>(is, what);
  HCP_CHECK_MSG(is.get() == ' ',
                what << ": malformed string (missing separator)");
  std::string s;
  while (s.size() < n) {
    const std::size_t have = s.size();
    const std::size_t chunk = std::min(n - have, kMaxReserve);
    s.resize(have + chunk);
    is.read(s.data() + have, static_cast<std::streamsize>(chunk));
    HCP_CHECK_MSG(static_cast<std::size_t>(is.gcount()) == chunk,
                  what << ": truncated string (wanted " << n << " bytes)");
  }
  return s;
}

/// Writes one number exactly as `os << v` writes it under
/// preparePrecision: an integer in plain decimal, a floating-point value as
/// printf's "%.17g" (which is what `std::to_chars` with
/// `chars_format::general` and precision 17 produces, nan, inf and -0
/// included). It skips the locale num_put machinery, so it is several times
/// faster per value, and it does not depend on the stream's precision.
template <typename T>
void writeNum(std::ostream& os, T v) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
                    !std::is_same_v<T, char> &&
                    !std::is_same_v<T, signed char> &&
                    !std::is_same_v<T, unsigned char>,
                "writeNum takes integer and floating-point numbers");
  char buf[32];  // "-2.2250738585072014e-308" is the longest double: 24
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>)
    r = std::to_chars(buf, buf + sizeof buf, static_cast<double>(v),
                      std::chars_format::general, 17);
  else
    r = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, r.ptr - buf);
}

/// `<n> v0 v1 ...` vectors of arithmetic values.
template <typename T>
void writeVec(std::ostream& os, const std::vector<T>& v) {
  writeNum(os, v.size());
  for (const T& x : v) {
    os.put(' ');
    writeNum(os, x);
  }
}

template <typename T>
std::vector<T> readVec(std::istream& is, const char* what) {
  const auto n = read<std::size_t>(is, what);
  std::vector<T> v;
  v.reserve(std::min(n, kMaxReserve));
  for (std::size_t i = 0; i < n; ++i) v.push_back(read<T>(is, what));
  return v;
}

/// Requires that nothing but whitespace remains — the no-trailing-garbage
/// check every top-level reader runs before declaring success.
inline void expectEnd(std::istream& is, const char* what) {
  is >> std::ws;
  std::string extra;
  HCP_CHECK_MSG(!(is >> extra),
                what << ": trailing garbage '" << extra << "' after document");
}

/// Runs `fn()` and rethrows any hcp::Error as `<message> [<kind> file:
/// <path>]` — the stream-level readers never know where their bytes came
/// from, but "which file is broken" is the question the user has.
template <typename Fn>
auto nameOnError(const char* kind, const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " [" + kind + " file: " + path + "]");
  }
}

/// Runs `parse(is)` over one whole document and requires that nothing but
/// whitespace follows it (expectEnd); errors name `path` (see nameOnError).
template <typename Parse>
auto parseWhole(std::istream& is, const char* kind, const std::string& path,
                Parse&& parse) {
  return nameOnError(kind, path, [&] {
    auto result = parse(is);
    expectEnd(is, kind);
    return result;
  });
}

/// Opens `path` and parses it as one whole document (see parseWhole).
/// Throws hcp::Error "cannot open <path>" when the file cannot be opened.
template <typename Parse>
auto readFile(const std::string& path, const char* kind, Parse&& parse) {
  std::ifstream is(path, std::ios::binary);
  HCP_CHECK_MSG(is.good(), "cannot open " << path);
  return parseWhole(is, kind, path, parse);
}

/// The whole file as raw bytes; nullopt when it cannot be opened or read.
inline std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  if (is.bad()) return std::nullopt;
  return std::move(os).str();
}

}  // namespace hcp::support::txt
