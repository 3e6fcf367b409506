// Structured event tracing for the discrete-event simulator and the daemon.
//
// EventTracer records typed events as JSONL (one flat JSON object per line),
// keyed by simulated time in integer nanoseconds (`t_ns`), so traces are
// exact, diffable and mergeable.  Each line is written field by field, in
// call order, with the shared writers of common/json.h: doubles in their
// shortest round-trip form, and NaN or ±inf as null, so every line is JSON
// that obs/trace_reader.h (Json::parse) reads back.  The sink is set before
// the run — a file (open) for the bench drivers and themis-noded, any
// std::ostream (set_sink) for tests — and emit() appends each record to it
// at once, so memory does not grow with the trace.  Tracing never perturbs
// simulation state, so a traced run is bit-identical to an untraced one.
//
// Zero overhead when disabled: every emission site guards on `enabled()`
// (one predictable branch); a tracer that was never enabled allocates
// nothing.
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>

#include "common/sim_time.h"

namespace themis::obs {

/// One key/value pair of a trace record.  Built via the static factories so
/// call sites stay readable and integer widths are explicit.
struct Field {
  enum class Type { kU64, kI64, kF64, kBool, kStr };

  std::string_view key;
  Type type = Type::kU64;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double f = 0.0;
  bool b = false;
  std::string_view s;

  static Field u64(std::string_view key, std::uint64_t value) {
    Field field;
    field.key = key;
    field.type = Type::kU64;
    field.u = value;
    return field;
  }
  static Field i64(std::string_view key, std::int64_t value) {
    Field field;
    field.key = key;
    field.type = Type::kI64;
    field.i = value;
    return field;
  }
  static Field f64(std::string_view key, double value) {
    Field field;
    field.key = key;
    field.type = Type::kF64;
    field.f = value;
    return field;
  }
  static Field boolean(std::string_view key, bool value) {
    Field field;
    field.key = key;
    field.type = Type::kBool;
    field.b = value;
    return field;
  }
  static Field str(std::string_view key, std::string_view value) {
    Field field;
    field.key = key;
    field.type = Type::kStr;
    field.s = value;
    return field;
  }
};

class EventTracer {
 public:
  EventTracer() = default;
  // open() points the sink at this object's own file.
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Append every later record to `sink` (not owned) and enable tracing;
  /// null detaches the sink and stops tracing.
  void set_sink(std::ostream* sink) {
    sink_ = sink;
    enabled_ = sink != nullptr;
  }
  /// Truncate `path`, make it the sink and enable tracing; false, with the
  /// tracer left as it was, when the file cannot be opened.
  bool open(const std::string& path);
  /// Flush and close the file open() made the sink, and stop tracing; false
  /// when a write failed.
  bool close();

  /// Append one record: {"t_ns":<t>,"ev":"<ev>",<fields...>}.  A no-op when
  /// the tracer is disabled, but call sites should still guard on enabled()
  /// so argument evaluation (hash hex-encoding etc.) is skipped too.
  void emit(SimTime t, std::string_view ev, std::initializer_list<Field> fields);

  /// Records emitted while enabled.
  std::size_t size() const { return count_; }

 private:
  bool enabled_ = false;
  std::ostream* sink_ = nullptr;
  std::ofstream file_;
  std::string line_;  ///< render buffer, reused by every emit
  std::size_t count_ = 0;
};

}  // namespace themis::obs
