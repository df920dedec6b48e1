#include "support/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace hcp::support::env {

std::optional<std::uint64_t> parseU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parseF64(std::string_view text) {
  // Shape check first: strtod accepts far more than a decimal literal
  // (hex floats, "inf", "nan", leading whitespace), so the grammar is
  // enforced by hand and strtod only does the digits-to-double conversion.
  std::size_t i = 0;
  if (i < text.size() && text[i] == '-') ++i;
  std::size_t mantissaDigits = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    ++i;
    ++mantissaDigits;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
      ++mantissaDigits;
    }
  }
  if (mantissaDigits == 0) return std::nullopt;
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    std::size_t expDigits = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
      ++expDigits;
    }
    if (expDigits == 0) return std::nullopt;
  }
  if (i != text.size()) return std::nullopt;

  const std::string token(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL))
    return std::nullopt;  // overflow; gradual underflow is fine
  return value;
}

std::uint64_t parseCount(std::string_view flag, std::string_view text,
                         std::uint64_t minValue,
                         void (*usageError)(const std::string& message)) {
  const std::optional<std::uint64_t> value = parseU64(text);
  if (value && *value >= minValue) return *value;
  usageError(std::string(flag) + " expects an integer >= " +
             std::to_string(minValue) + ", got '" + std::string(text) + "'");
  std::abort();  // usageError exits
}

std::uint64_t u64OrDie(const char* var, std::uint64_t minValue,
                       std::uint64_t maxValue, std::uint64_t fallback) {
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<std::uint64_t> value = parseU64(raw);
  if (!value || *value < minValue || *value > maxValue) {
    std::fprintf(stderr,
                 "hcp: %s expects an integer in [%llu, %llu], got '%s'\n",
                 var, static_cast<unsigned long long>(minValue),
                 static_cast<unsigned long long>(maxValue), raw);
    std::exit(2);
  }
  return *value;
}

}  // namespace hcp::support::env
