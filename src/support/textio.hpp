// Shared primitives of the line-oriented text serializers (ir/hls/rtl/fpga/
// trace `serialize.hpp`, the ml model and map formats) and of the whole-file
// readers every artifact loader goes through. The format goals are the ones
// the flow cache needs:
//
//   - *exact* round trips: doubles are printed with 17 significant digits
//     (writers call `preparePrecision` once per document), so
//     save -> load -> save reproduces the original file byte for byte and
//     loaded values are bit-identical to the saved ones;
//   - robust strings: length-prefixed raw bytes (`5 hello`), so names with
//     spaces or any other byte survive unquoted;
//   - loud failures: every read checks the stream and throws hcp::Error on
//     truncation or token mismatch — a corrupt document can never parse into
//     a half-filled struct silently.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
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

/// Reads one whitespace-delimited token and requires it to equal `token`.
inline void expect(std::istream& is, const char* token) {
  std::string got;
  HCP_CHECK_MSG(static_cast<bool>(is >> got) && got == token,
                "serialized document: expected '" << token << "', got '"
                                                  << got << "'");
}

/// Checked `>>` for arithmetic values.
template <typename T>
T read(std::istream& is, const char* what) {
  T v{};
  HCP_CHECK_MSG(static_cast<bool>(is >> v),
                "serialized document: truncated while reading " << what);
  return v;
}

/// Bools as 0/1 (operator>> would also accept them, but keep writes explicit).
inline void writeBool(std::ostream& os, bool b) { os << (b ? 1 : 0); }

inline bool readBool(std::istream& is, const char* what) {
  const int v = read<int>(is, what);
  HCP_CHECK_MSG(v == 0 || v == 1, what << ": bool must be 0 or 1, got " << v);
  return v != 0;
}

/// Length-prefixed string: `<size> <raw bytes>`. The single separator after
/// the size is consumed exactly, so the bytes may contain anything.
inline void writeStr(std::ostream& os, const std::string& s) {
  os << s.size() << ' ' << s;
}

inline std::string readStr(std::istream& is, const char* what) {
  const auto n = read<std::size_t>(is, what);
  HCP_CHECK_MSG(is.get() == ' ',
                what << ": malformed string (missing separator)");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  HCP_CHECK_MSG(static_cast<std::size_t>(is.gcount()) == n,
                what << ": truncated string (wanted " << n << " bytes)");
  return s;
}

/// `<n> v0 v1 ...` vectors of arithmetic values.
template <typename T>
void writeVec(std::ostream& os, const std::vector<T>& v) {
  os << v.size();
  for (const T& x : v) os << ' ' << x;
}

/// The count is untrusted: at most `kMaxReserve` elements are reserved up
/// front, so a corrupt count fails as truncation, never as bad_alloc.
inline constexpr std::size_t kMaxReserve = std::size_t{1} << 16;

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
