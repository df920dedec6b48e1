// support::txt readers against `std::istringstream >> v` as the oracle: the
// number contract of support/textio.hpp (bit-exact for writer tokens, never
// more lenient than operator>>, two deliberate tightenings), in-place
// keyword matching, and untrusted string lengths.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::support::txt {
namespace {

template <typename T>
std::string written(T v) {
  std::ostringstream os;
  preparePrecision(os);
  os << v;
  return os.str();
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// --- doubles: every written value reads back bit for bit ---------------------

std::vector<double> edgeDoubles() {
  const double lim[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      DBL_MAX,
      -DBL_MAX,
      DBL_MIN,
      -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_EPSILON,
      1.0 + DBL_EPSILON,
      std::nextafter(1.0, 0.0),
      1e22,
      1e23,
      9007199254740993.0,  // 2^53 + 1, rounds on the way in
      123456789012345678.0,
      5e-324,
      2.2250738585072009e-308,
  };
  return {std::begin(lim), std::end(lim)};
}

TEST(TextioDoubles, RandomAndEdgeValuesReadBackBitIdentical) {
  std::vector<double> values = edgeDoubles();
  std::mt19937_64 rng(2019);
  std::uniform_real_distribution<double> modest(-1e6, 1e6);
  while (values.size() < 100000) {
    // Half raw bit patterns (every exponent, subnormals included), half the
    // magnitudes real features and weights have.
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
    values.push_back(modest(rng));
  }
  std::ostringstream os;
  preparePrecision(os);
  for (const double v : values) os << v << ' ';
  const std::string text = os.str();

  std::istringstream mine(text), oracle(text);
  for (const double v : values) {
    const double got = read<double>(mine, "value");
    double want = 0;
    ASSERT_TRUE(static_cast<bool>(oracle >> want)) << written(v);
    ASSERT_TRUE(sameBits(got, v)) << written(v) << " read as " << written(got);
    ASSERT_TRUE(sameBits(got, want)) << written(v);
  }
  EXPECT_NO_THROW(expectEnd(mine, "values"));
}

// --- writeNum: the bytes `os << v` writes, at precision 17 -------------------

std::string viaWriteNum(double v) {
  std::ostringstream os;
  writeNum(os, v);
  return os.str();
}

TEST(TextioWriteNum, DoublesMatchOstreamByteForByte) {
  std::vector<double> values = edgeDoubles();
  for (const double v :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(), 0.5, 100.0, -42.0,
        1e16, 1e17, 123456789.0, 4294967296.0, 1e-5, 1e-4})
    values.push_back(v);
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<std::int64_t> ints(-1000000, 1000000);
  while (values.size() < 200000) {
    // Raw bit patterns (every exponent, subnormals and NaN payloads
    // included) and integer-valued doubles.
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
    values.push_back(static_cast<double>(ints(rng)));
  }
  for (const double v : values)
    ASSERT_EQ(viaWriteNum(v), written(v)) << std::hexfloat << v;
}

template <typename T>
void expectIntegerWritesMatch() {
  for (const T v : {std::numeric_limits<T>::min(), T{0}, T{1}, T{10},
                    std::numeric_limits<T>::max()}) {
    std::ostringstream os;
    writeNum(os, v);
    EXPECT_EQ(os.str(), written(v));
  }
}

TEST(TextioWriteNum, IntegersMatchOstream) {
  expectIntegerWritesMatch<int>();
  expectIntegerWritesMatch<std::int64_t>();
  expectIntegerWritesMatch<std::uint32_t>();
  expectIntegerWritesMatch<std::uint64_t>();
  expectIntegerWritesMatch<std::size_t>();
}

TEST(TextioWriteNum, WriteVecMatchesOstreamAndReadsBack) {
  const std::vector<double> v = edgeDoubles();
  std::ostringstream mine, oracle;
  preparePrecision(oracle);
  writeVec(mine, v);
  oracle << v.size();
  for (const double x : v) oracle << ' ' << x;
  EXPECT_EQ(mine.str(), oracle.str());
  std::istringstream is(mine.str());
  const std::vector<double> back = readVec<double>(is, "vec");
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_TRUE(sameBits(back[i], v[i])) << written(v[i]);
}

// --- integers: every instantiation in the loaders, at its limits -------------

template <typename T>
void expectLimitsRoundTrip() {
  for (const T v : {std::numeric_limits<T>::min(), T{0}, T{1},
                    std::numeric_limits<T>::max()}) {
    const std::string text = " " + written(v) + " ";
    std::istringstream mine(text), oracle(text);
    T want{};
    ASSERT_TRUE(static_cast<bool>(oracle >> want)) << text;
    EXPECT_EQ(read<T>(mine, "limit"), v) << text;
    EXPECT_EQ(want, v) << text;
    EXPECT_EQ(mine.get(), oracle.get()) << text;
  }
  // One past either end is rejected by both.
  const std::string past = written(std::numeric_limits<T>::max()) + "0";
  std::istringstream mine(past), oracle(past);
  T v{};
  EXPECT_FALSE(readNumber(mine, v)) << past;
  EXPECT_FALSE(static_cast<bool>(oracle >> v)) << past;
}

TEST(TextioIntegers, EveryLoaderTypeRoundTripsAtItsLimits) {
  expectLimitsRoundTrip<int>();
  expectLimitsRoundTrip<std::int32_t>();
  expectLimitsRoundTrip<std::int64_t>();
  expectLimitsRoundTrip<unsigned>();
  expectLimitsRoundTrip<std::uint16_t>();
  expectLimitsRoundTrip<std::uint32_t>();
  expectLimitsRoundTrip<std::uint64_t>();
  expectLimitsRoundTrip<std::size_t>();
}

template <typename T>
void expectMinusRejected() {
  for (const char* text : {"-1", "-0", " -7 "}) {
    std::istringstream is(text);
    EXPECT_THROW(read<T>(is, "unsigned"), Error) << text;
  }
  std::istringstream vec("-1 0");
  EXPECT_THROW(readVec<double>(vec, "count"), Error);
}

TEST(TextioIntegers, MinusOnEveryUnsignedTypeIsRejected) {
  // operator>> wrapped "-1" to the type's maximum; the reader refuses it.
  std::istringstream oracle("-1");
  std::size_t wrapped = 0;
  ASSERT_TRUE(static_cast<bool>(oracle >> wrapped));
  EXPECT_EQ(wrapped, std::numeric_limits<std::size_t>::max());
  expectMinusRejected<unsigned>();
  expectMinusRejected<std::uint16_t>();
  expectMinusRejected<std::uint32_t>();
  expectMinusRejected<std::uint64_t>();
  expectMinusRejected<std::size_t>();
}

// --- adversarial tokens: never accept what operator>> rejects ----------------

const std::vector<std::string>& adversarialTokens() {
  static const std::vector<std::string> tokens = [] {
    std::vector<std::string> t = {
        "nan", "-nan", "NAN", "inf", "-inf", "infinity", "1e", "1e+", "1.5x",
        "0x10", "+", "-", "+-5", "-+5", "++5", "--5", "+5", "+.5", ".",
        "..5", "1..2", ".5", "5.", "-.5", "-0", "+0", "1e+5", "1E5", "1e5x",
        "12-3", "12.5", "007", "e5", "-e5", "1e400", "-1e400", "1e-400",
        "2.4703282292062327e-324", "4.9406564584124654e-324",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "99999999999999999999", "-9223372036854775809",
        "18446744073709551616", "4294967296", "65536", "-2147483649", "",
        "   ", "\n\t-7\n", "  42  "};
    t.push_back("1" + std::string(199, '0'));
    t.push_back("0." + std::string(197, '0') + "1");
    t.push_back(std::string(200, '9'));
    t.push_back(std::string(200, '-'));
    return t;
  }();
  return tokens;
}

/// `text` read as T by both readers: whatever the reader accepts, the
/// oracle accepts with the same value, the same next character and the same
/// eof state; a rejection always leaves failbit set.
template <typename T>
void expectNoMoreLenientThanOracle(const std::string& text) {
  std::istringstream mine(text), oracle(text);
  T got{}, want{};
  const bool mineOk = readNumber(mine, got);
  const bool oracleOk = static_cast<bool>(oracle >> want);
  if (!mineOk) {
    EXPECT_TRUE(mine.fail()) << "'" << text << "'";
    return;
  }
  ASSERT_TRUE(oracleOk) << "accepted '" << text << "', operator>> did not";
  if constexpr (std::is_floating_point_v<T>)
    EXPECT_TRUE(sameBits(got, want)) << "'" << text << "'";
  else
    EXPECT_EQ(got, want) << "'" << text << "'";
  EXPECT_EQ(mine.eof(), oracle.eof()) << "'" << text << "'";
  EXPECT_EQ(mine.get(), oracle.get()) << "'" << text << "'";
}

TEST(TextioAdversarial, NeverAcceptsWhatOperatorRejects) {
  for (const std::string& token : adversarialTokens()) {
    for (const std::string& text :
         {token, token + " tail", token + "|", token + "\n"}) {
      SCOPED_TRACE("'" + text + "'");
      expectNoMoreLenientThanOracle<double>(text);
      expectNoMoreLenientThanOracle<int>(text);
      expectNoMoreLenientThanOracle<std::int64_t>(text);
      expectNoMoreLenientThanOracle<std::uint16_t>(text);
      expectNoMoreLenientThanOracle<std::uint32_t>(text);
      expectNoMoreLenientThanOracle<std::uint64_t>(text);
      expectNoMoreLenientThanOracle<std::size_t>(text);
    }
  }
}

TEST(TextioAdversarial, SpecificVerdicts) {
  const auto accepts = [](const std::string& text) {
    std::istringstream is(text);
    double v = 0;
    return readNumber(is, v);
  };
  for (const char* bad : {"nan", "inf", "-nan", "1e", "+", "-", "1e400", "",
                          "1e-400", "1e+"})
    EXPECT_FALSE(accepts(bad)) << bad;
  for (const char* good : {"1.5x", "+5", "0x10", "-0", ".5", "1E5"})
    EXPECT_TRUE(accepts(good)) << good;

  std::istringstream is("1.5x");
  EXPECT_EQ(read<double>(is, "v"), 1.5);
  EXPECT_EQ(is.get(), 'x');

  // The underflow tightening: operator>> read 1e-400 as 0.
  std::istringstream oracle("1e-400");
  double zero = 1;
  ASSERT_TRUE(static_cast<bool>(oracle >> zero));
  EXPECT_EQ(zero, 0.0);
}

TEST(TextioAdversarial, EndOfInputAndFailedStreams) {
  std::istringstream empty("");
  double v = 0;
  EXPECT_FALSE(readNumber(empty, v));
  EXPECT_TRUE(empty.eof() && empty.fail());

  std::istringstream last("12");
  EXPECT_EQ(read<int>(last, "v"), 12);
  EXPECT_TRUE(last.eof());
  EXPECT_FALSE(last.fail());
  EXPECT_THROW(read<int>(last, "v"), Error);

  std::istringstream failed("1 2");
  failed.setstate(std::ios::failbit);
  EXPECT_FALSE(readNumber(failed, v));
}

// --- expect: in-place keyword match, whole token on mismatch -----------------

std::string expectMessage(const std::string& text, const char* token) {
  std::istringstream is(text);
  try {
    expect(is, token);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TextioExpect, MatchLeavesTheSeparatorLikeOperator) {
  for (const std::string text :
       {"config 3", "\n  config\n3", "config", "config\t"}) {
    std::istringstream mine(text), oracle(text);
    std::string word;
    oracle >> word;
    ASSERT_EQ(word, "config");
    EXPECT_NO_THROW(expect(mine, "config")) << text;
    EXPECT_EQ(mine.eof(), oracle.eof()) << text;
    EXPECT_EQ(mine.get(), oracle.get()) << text;
  }
}

TEST(TextioExpect, MismatchReportsTheWholeToken) {
  EXPECT_NE(expectMessage("conf 1", "config")
                .find("expected 'config', got 'conf'"),
            std::string::npos);
  EXPECT_NE(expectMessage("configx 1", "config")
                .find("expected 'config', got 'configx'"),
            std::string::npos);
  EXPECT_NE(expectMessage("scaler", "config")
                .find("expected 'config', got 'scaler'"),
            std::string::npos);
  EXPECT_NE(expectMessage("", "config").find("expected 'config', got ''"),
            std::string::npos);
  EXPECT_NE(expectMessage("   \n", "config").find("got ''"),
            std::string::npos);
  const std::string longToken = "config" + std::string(300, 'x');
  EXPECT_NE(expectMessage(longToken + " 1", "config")
                .find("got '" + longToken + "'"),
            std::string::npos);
  const std::string other = std::string(500, 'q');
  EXPECT_NE(expectMessage(other, "config").find("got '" + other + "'"),
            std::string::npos);
}

// --- readStr: untrusted lengths fail as truncation ---------------------------

std::string readStrMessage(const std::string& text) {
  std::istringstream is(text);
  try {
    readStr(is, "name");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TextioReadStr, HugeOrNegativeLengthsAreErrorsNotAllocations) {
  EXPECT_NE(readStrMessage("99999999999999999 x").find("truncated string"),
            std::string::npos);
  EXPECT_NE(readStrMessage("3000000000 x").find("truncated string"),
            std::string::npos);
  EXPECT_NE(readStrMessage("-1 x").find("truncated while reading name"),
            std::string::npos);
  EXPECT_NE(readStrMessage("5 abc").find("truncated string"),
            std::string::npos);
  EXPECT_NE(readStrMessage("5x").find("missing separator"),
            std::string::npos);
}

TEST(TextioReadStr, RoundTripsAcrossChunks) {
  std::string big(kMaxReserve * 2 + 17, 'a');
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>(i * 131 % 256);
  for (const std::string& s : {std::string(), std::string("a b\n c"), big}) {
    std::ostringstream os;
    writeStr(os, s);
    os << " 7";
    std::istringstream is(os.str());
    EXPECT_EQ(readStr(is, "s"), s);
    EXPECT_EQ(read<int>(is, "tail"), 7);
  }
}

}  // namespace
}  // namespace hcp::support::txt
