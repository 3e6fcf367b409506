// The repository's one JSON codec: a value type with a strict parser and a
// deterministic serializer, plus the string escaper and number formatter
// that every JSON writer in the tree shares (Json::dump, obs::EventTracer's
// JSONL traces and the daemon logger's records).
//
// The gateway speaks JSON-RPC over HTTP to clients we do not control, so the
// parser is written for hostile input: bounded recursion depth, strict
// grammar (no trailing commas, no comments, no bare values beyond the JSON
// spec), and every error is a typed exception the caller maps to a protocol
// error response — malformed bytes can never take a connection thread down.
// themis-trace parses every trace line with the same parser.
//
// Numbers keep their best representation: integral literals that fit are
// stored exactly as uint64/int64 (account balances and nonces must round-trip
// exactly; doubles would corrupt them past 2^53), everything else as double.
// Doubles are written as the shortest decimal that reads back to the same
// value (std::to_chars), and NaN and ±inf, which JSON cannot spell, as null.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace themis {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  using Array = std::vector<Json>;
  /// Ordered map: serialization is deterministic (testable byte-for-byte).
  /// Transparent comparator, so lookups by string_view allocate nothing.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::uint64_t u) : value_(u) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : value_(static_cast<std::uint64_t>(u)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json object(std::initializer_list<std::pair<const std::string, Json>> init) {
    return Json(Object(init));
  }
  static Json array(std::initializer_list<Json> init) {
    return Json(Array(init));
  }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_number() const { return is_u64() || is_i64() || is_double(); }
  bool is_u64() const { return std::holds_alternative<std::uint64_t>(value_); }
  bool is_i64() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }

  /// Typed accessors; throw JsonError on a type mismatch (the gateway maps
  /// that to "invalid params").
  bool as_bool() const;
  std::uint64_t as_u64() const;  ///< also accepts non-negative int64
  std::int64_t as_i64() const;   ///< also accepts uint64 up to INT64_MAX
  double as_double() const;      ///< any number
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup: the field, or nullptr when absent or when this is
  /// not an object.
  const Json* find(std::string_view key) const;
  /// Object field lookup; returns a shared null value when absent (so
  /// `params["nonce"].is_null()` reads naturally for optional fields).
  const Json& operator[](std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Mutable object insertion (creates/overwrites the field).
  Json& set(const std::string& key, Json value);

  bool operator==(const Json&) const = default;

  /// Compact serialization (no whitespace), deterministic field order.
  std::string dump() const;

  /// Strict parse of a complete JSON document.  Throws JsonError on any
  /// syntax error, trailing garbage, or nesting deeper than `max_depth`.
  static Json parse(std::string_view text, std::size_t max_depth = 64);

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, Array, Object>
      value_;
};

/// Append `s` as a JSON string literal, quotes included: `"` and `\` are
/// escaped, control characters become \n-style or \u00XX escapes, and every
/// other byte (UTF-8 included) passes through.
void append_json_string(std::string& out, std::string_view s);

/// Append `value` as a JSON number: the shortest decimal that parses back to
/// the same double, or `null` when it is NaN or infinite.
void append_json_number(std::string& out, double value);

}  // namespace themis
