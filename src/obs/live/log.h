// Leveled structured logging for the live node.
//
// One process-wide logger, disabled by default so libraries stay silent under
// tests and benchmarks; the daemon turns it on from --log-level/--log-json.
// Every record carries a level, a subsystem component tag, a message and
// typed key/value fields, and renders as either a human line
//
//   2026-08-09T12:00:00.123Z INFO  [p2p] peer ready node=0 remote=1
//
// or one JSON object per line (JSONL, machine-parseable):
//
//   {"ts":"2026-08-09T12:00:00.123Z","level":"info","component":"p2p",
//    "msg":"peer ready","node":0,"remote":1}
//
// Both forms write numbers with common/json.h's formatter: a double as the
// shortest decimal that reads back exactly, NaN and ±inf as null.
//
// The level gate is one relaxed atomic load, so call sites below the level
// cost a branch; formatting and the sink mutex are paid only for records
// that pass.  Use the free functions:
//
//   live::log_info("p2p", "peer ready", {{"node", id}, {"remote", rid}});
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>

namespace themis::obs::live {

enum class LogLevel : int { debug = 0, info, warn, error, off };

/// Parse "debug"/"info"/"warn"/"error"/"off"; anything else -> info.
LogLevel log_level_from(std::string_view name);
std::string_view to_string(LogLevel level);

/// One typed key/value field on a log record.
struct LogField {
  LogField(std::string_view k, std::string_view v)
      : key(k), value(std::string(v)) {}
  LogField(std::string_view k, const char* v)
      : key(k), value(std::string(v)) {}
  LogField(std::string_view k, std::uint64_t v) : key(k), value(v) {}
  LogField(std::string_view k, std::int64_t v) : key(k), value(v) {}
  LogField(std::string_view k, int v)
      : key(k), value(static_cast<std::int64_t>(v)) {}
  LogField(std::string_view k, double v) : key(k), value(v) {}
  LogField(std::string_view k, bool v) : key(k), value(v) {}

  std::string_view key;
  std::variant<std::string, std::uint64_t, std::int64_t, double, bool> value;
};

class Logger {
 public:
  /// The process-wide instance used by the log_* free functions.
  static Logger& global();

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_json(bool json) { json_.store(json, std::memory_order_relaxed); }
  /// Redirect output (default stderr); pass nullptr to restore stderr.
  /// The stream must outlive the logger's use of it.
  void set_sink(std::ostream* sink);

  bool enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  void log(LogLevel level, std::string_view component, std::string_view msg,
           std::initializer_list<LogField> fields = {});

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::off)};
  std::atomic<bool> json_{false};
  std::atomic<std::ostream*> sink_{nullptr};  ///< nullptr = stderr
};

inline void log_debug(std::string_view component, std::string_view msg,
                      std::initializer_list<LogField> fields = {}) {
  Logger& l = Logger::global();
  if (l.enabled(LogLevel::debug)) l.log(LogLevel::debug, component, msg, fields);
}
inline void log_info(std::string_view component, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  Logger& l = Logger::global();
  if (l.enabled(LogLevel::info)) l.log(LogLevel::info, component, msg, fields);
}
inline void log_warn(std::string_view component, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  Logger& l = Logger::global();
  if (l.enabled(LogLevel::warn)) l.log(LogLevel::warn, component, msg, fields);
}
inline void log_error(std::string_view component, std::string_view msg,
                      std::initializer_list<LogField> fields = {}) {
  Logger& l = Logger::global();
  if (l.enabled(LogLevel::error)) l.log(LogLevel::error, component, msg, fields);
}

}  // namespace themis::obs::live
