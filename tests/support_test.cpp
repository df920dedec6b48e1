#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace hcp {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniformInt(17), 17u);
  }
}

TEST(Rng, UniformIntRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.uniformInt(0), Error);
}

TEST(Rng, UniformIntRoughlyUniform) {
  Rng rng(11);
  std::array<int, 8> counts{};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniformInt(8)];
  for (int c : counts) {
    EXPECT_GT(c, n / 8 * 0.9);
    EXPECT_LT(c, n / 8 * 1.1);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniformReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(21);
  auto p = rng.permutation(50);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

// --- stats ---------------------------------------------------------------

TEST(Stats, MeanOfValues) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, MedianEmptyIsZero) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

// --- strings ---------------------------------------------------------------

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(join({}, ","), "");
}

// --- table -----------------------------------------------------------------

TEST(Table, AsciiContainsCells) {
  Table t("Title");
  t.setHeader({"a", "b"});
  t.addRow({"1", "22"});
  const std::string s = t.toAscii();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t;
  t.setHeader({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

TEST(Table, CsvEscaping) {
  Table t;
  t.setHeader({"x"});
  t.addRow({"va,l\"ue"});
  const std::string csv = t.toCsv();
  EXPECT_NE(csv.find("\"va,l\"\"ue\""), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmtSci(1080000.0), "1.08e+06");
}

// --- error -------------------------------------------------------------

TEST(Error, CheckMessageIncludesExpression) {
  try {
    HCP_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

// --- env::parseU64 -----------------------------------------------------

TEST(EnvParse, AcceptsWholeTokenDigitsOnly) {
  EXPECT_EQ(support::env::parseU64("0"), 0u);
  EXPECT_EQ(support::env::parseU64("42"), 42u);
  EXPECT_EQ(support::env::parseU64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(EnvParse, RejectsEverythingElse) {
  // The strtol failure modes this replaced: trailing junk parsed as a
  // truncated value, and non-numeric input parsed as zero.
  const char* bad[] = {"",   "4abc", "abc",   "-1",  "+1",
                       " 1", "1 ",   "0x10",  "1.5", "18446744073709551616"};
  for (const char* text : bad)
    EXPECT_FALSE(support::env::parseU64(text).has_value()) << text;
}

// --- env::parseF64 -----------------------------------------------------

TEST(EnvParse, F64AcceptsDecimalLiterals) {
  EXPECT_EQ(support::env::parseF64("0"), 0.0);
  EXPECT_EQ(support::env::parseF64("400"), 400.0);
  EXPECT_EQ(support::env::parseF64("0.5"), 0.5);
  EXPECT_EQ(support::env::parseF64("-2.25"), -2.25);
  EXPECT_EQ(support::env::parseF64("1."), 1.0);
  EXPECT_EQ(support::env::parseF64(".5"), 0.5);
  EXPECT_EQ(support::env::parseF64("1e3"), 1000.0);
  EXPECT_EQ(support::env::parseF64("2.5E-2"), 0.025);
  EXPECT_EQ(support::env::parseF64("-1e+2"), -100.0);
}

TEST(EnvParse, F64RejectsEverythingElse) {
  // The strtod failure modes this replaced: "nan" made threshold
  // comparisons vacuously false, "inf" disabled gates, hex floats and
  // trailing junk parsed as something other than what was written.
  const char* bad[] = {"",      ".",      "-",      "1.5x",  "400%",
                       " 1",    "1 ",     "nan",    "NaN",   "inf",
                       "-inf",  "INF",    "0x10",   "0x.8p1", "1e",
                       "1e+",   "1.2.3",  "+1",     "--1",   "1e999"};
  for (const char* text : bad)
    EXPECT_FALSE(support::env::parseF64(text).has_value()) << text;
}

TEST(EnvParse, F64GradualUnderflowIsNotAnError) {
  const auto tiny = support::env::parseF64("1e-320");  // subnormal
  ASSERT_TRUE(tiny.has_value());
  EXPECT_GT(*tiny, 0.0);
}

}  // namespace
}  // namespace hcp
