#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::support::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skipWs();
    Value v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw hcp::Error("JSON parse error at byte " + std::to_string(pos_) +
                     ": " + what);
  }

  bool atEnd() const { return pos_ >= text_.size(); }

  char peek() const {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skipWs() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  Value parseValue(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return parseString();
      case 't': case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }

  void expectWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  Value parseNull() {
    expectWord("null");
    return {};
  }

  Value parseBool() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (peek() == 't') {
      expectWord("true");
      v.boolean = true;
    } else {
      expectWord("false");
      v.boolean = false;
    }
    return v;
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && text_[pos_] == '-') ++pos_;
    // Integer part: a single 0, or [1-9][0-9]*. Leading zeros are invalid.
    if (atEnd() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (!atEnd() && text_[pos_] == '.') {
      ++pos_;
      if (atEnd() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit expected after decimal point");
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (atEnd() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit expected in exponent");
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d))
      fail("number out of range");
    Value v;
    v.kind = Value::Kind::Number;
    v.number = d;
    return v;
  }

  unsigned parseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  void appendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parseString() {
    Value v;
    v.kind = Value::Kind::String;
    v.str = parseRawString();
    return v;
  }

  std::string parseRawString() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
            const unsigned lo = parseHex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value parseArray(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::Array;
    expect('[');
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parseValue(depth + 1));
      skipWs();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
      skipWs();
    }
  }

  Value parseObject(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::Object;
    expect('{');
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skipWs();
      std::string key = parseRawString();
      skipWs();
      expect(':');
      skipWs();
      v.object.emplace_back(std::move(key), parseValue(depth + 1));
      skipWs();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double Value::asNumber() const {
  HCP_CHECK_MSG(isNumber(), "JSON value is not a number");
  return number;
}

const std::string& Value::asString() const {
  HCP_CHECK_MSG(isString(), "JSON value is not a string");
  return str;
}

bool Value::asBool() const {
  HCP_CHECK_MSG(isBool(), "JSON value is not a bool");
  return boolean;
}

Value parse(std::string_view text) { return Parser(text).run(); }

Value parseFile(const std::string& path) {
  const std::optional<std::string> text = txt::slurp(path);
  HCP_CHECK_MSG(text.has_value(), "cannot open JSON file " << path);
  return parse(*text);
}

void writeEscaped(std::ostream& os, std::string_view s) {
  static const char* const kHex = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const auto u = static_cast<unsigned char>(c);
          os << "\\u00" << kHex[(u >> 4) & 0xF] << kHex[u & 0xF];
        } else {
          os << c;
        }
    }
  }
}

std::string escape(std::string_view s) {
  std::ostringstream os;
  writeEscaped(os, s);
  return std::move(os).str();
}

}  // namespace hcp::support::json
