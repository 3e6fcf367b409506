#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace themis {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  fail("expected bool");
}

std::uint64_t Json::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    if (*i < 0) fail("expected unsigned integer, got negative");
    return static_cast<std::uint64_t>(*i);
  }
  fail("expected unsigned integer");
}

std::int64_t Json::as_i64() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    if (*u > static_cast<std::uint64_t>(INT64_MAX)) fail("integer overflow");
    return static_cast<std::int64_t>(*u);
  }
  fail("expected integer");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  fail("expected number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  fail("expected string");
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  fail("expected array");
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  fail("expected object");
}

const Json* Json::find(std::string_view key) const {
  const auto* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

const Json& Json::operator[](std::string_view key) const {
  const Json* field = find(key);
  return field != nullptr ? *field : null_json();
}

Json& Json::set(const std::string& key, Json value) {
  if (!std::holds_alternative<Object>(value_)) value_ = Object{};
  std::get<Object>(value_)[key] = std::move(value);
  return *this;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passes through untouched
        }
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no Inf/NaN; null is the conventional fallback
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

namespace {

void dump_value(const Json& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_string()) {
    append_json_string(out, v.as_string());
  } else if (v.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : v.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_value(item, out);
    }
    out.push_back(']');
  } else if (v.is_object()) {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : v.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      append_json_string(out, key);
      out.push_back(':');
      dump_value(item, out);
    }
    out.push_back('}');
  } else if (v.is_u64()) {
    out += std::to_string(v.as_u64());
  } else if (v.is_i64()) {
    out += std::to_string(v.as_i64());
  } else {
    append_json_number(out, v.as_double());
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }
  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    if (++depth_ > max_depth_) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    Json out;
    switch (c) {
      case '{': out = parse_object(); break;
      case '[': out = parse_array(); break;
      case '"': out = Json(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        out = Json(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        out = Json(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        out = Json(nullptr);
        break;
      default:
        out = parse_number();
    }
    --depth_;
    return out;
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, backslash or control byte at once.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
             static_cast<unsigned char>(text_[end]) >= 0x20) {
        ++end;
      }
      out.append(text_.substr(pos_, end - pos_));
      pos_ = end;
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xdc00 || lo > 0xdfff) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    bool integral = true;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid number");
    }
    const std::size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      fail("invalid number");  // JSON forbids leading zeros
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      if (negative) {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      }
      // Out of 64-bit range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::size_t max_depth_;
};

}  // namespace

Json Json::parse(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth).parse_document();
}

}  // namespace themis
