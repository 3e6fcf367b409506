// Reader for the JSONL traces EventTracer writes.
//
// Each line is parsed with the repository's JSON codec (common/json.h), the
// same strict parser the RPC gateway uses, and must be an object with an
// integer `t_ns` and a non-empty string `ev`.  Every other field passes
// through untouched, so unknown event kinds, extra fields and nested values
// never break the analyzer; the accessors read scalar fields and fall back
// on anything else.  Traces are read one line at a time (see analyze_trace),
// so no event outlives its line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"

namespace themis::obs {

struct TraceEvent {
  std::int64_t t_ns = 0;
  std::string ev;
  /// The whole parsed line (t_ns and ev included).
  Json record;

  /// An integer field, or `fallback` when it is absent, not an integer, or
  /// past the int64 range.
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  /// A non-negative integer field, or `fallback`.
  std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  /// Any numeric field as a double, or `fallback`.
  double num_or(std::string_view key, double fallback) const;
  std::string_view str_or(std::string_view key,
                          std::string_view fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
};

/// Parse one JSONL record.  Returns nullopt on malformed input.
std::optional<TraceEvent> parse_trace_line(std::string_view line);

}  // namespace themis::obs
