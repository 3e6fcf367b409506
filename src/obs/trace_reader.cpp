#include "obs/trace_reader.h"

#include <limits>

namespace themis::obs {

std::int64_t TraceEvent::int_or(std::string_view key,
                                std::int64_t fallback) const {
  const Json* v = record.find(key);
  if (v == nullptr) return fallback;
  if (v->is_i64()) return v->as_i64();
  if (v->is_u64() &&
      v->as_u64() <= static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max())) {
    return static_cast<std::int64_t>(v->as_u64());
  }
  return fallback;
}

std::uint64_t TraceEvent::u64_or(std::string_view key,
                                 std::uint64_t fallback) const {
  const Json* v = record.find(key);
  if (v == nullptr) return fallback;
  if (v->is_u64()) return v->as_u64();
  return fallback;
}

double TraceEvent::num_or(std::string_view key, double fallback) const {
  const Json* v = record.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string_view TraceEvent::str_or(std::string_view key,
                                    std::string_view fallback) const {
  const Json* v = record.find(key);
  return v != nullptr && v->is_string() ? std::string_view(v->as_string())
                                        : fallback;
}

bool TraceEvent::bool_or(std::string_view key, bool fallback) const {
  const Json* v = record.find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::optional<TraceEvent> parse_trace_line(std::string_view line) {
  TraceEvent event;
  try {
    event.record = Json::parse(line);
    // Throws unless t_ns is an integer in the int64 range.
    event.t_ns = event.record["t_ns"].as_i64();
    const Json& ev = event.record["ev"];
    if (!ev.is_string() || ev.as_string().empty()) return std::nullopt;
    event.ev = ev.as_string();
  } catch (const JsonError&) {
    return std::nullopt;
  }
  return event;
}

}  // namespace themis::obs
