#include "obs/live/log.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <mutex>

#include "common/json.h"

namespace themis::obs::live {

namespace {

/// Sink writes are serialized so concurrent records never interleave.
std::mutex g_sink_mu;

std::string iso8601_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
  return buf;
}

void append_value_json(std::string& out, const LogField& field) {
  if (const auto* s = std::get_if<std::string>(&field.value)) {
    append_json_string(out, *s);
  } else if (const auto* u = std::get_if<std::uint64_t>(&field.value)) {
    out += std::to_string(*u);
  } else if (const auto* i = std::get_if<std::int64_t>(&field.value)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&field.value)) {
    append_json_number(out, *d);
  } else if (const auto* b = std::get_if<bool>(&field.value)) {
    out += *b ? "true" : "false";
  }
}

void append_value_text(std::string& out, const LogField& field) {
  if (const auto* s = std::get_if<std::string>(&field.value)) {
    out += *s;
  } else {
    append_value_json(out, field);  // numbers/bools render identically
  }
}

}  // namespace

LogLevel log_level_from(std::string_view name) {
  if (name == "debug") return LogLevel::debug;
  if (name == "warn") return LogLevel::warn;
  if (name == "error") return LogLevel::error;
  if (name == "off") return LogLevel::off;
  return LogLevel::info;
}

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::debug: return "debug";
    case LogLevel::info: return "info";
    case LogLevel::warn: return "warn";
    case LogLevel::error: return "error";
    case LogLevel::off: return "off";
  }
  return "info";
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(std::ostream* sink) {
  sink_.store(sink, std::memory_order_relaxed);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg,
                 std::initializer_list<LogField> fields) {
  if (!enabled(level)) return;
  std::string line;
  line.reserve(128);
  const std::string ts = iso8601_now();
  if (json_.load(std::memory_order_relaxed)) {
    line += "{\"ts\":\"";
    line += ts;
    line += "\",\"level\":\"";
    line += to_string(level);
    line += "\",\"component\":";
    append_json_string(line, component);
    line += ",\"msg\":";
    append_json_string(line, msg);
    for (const LogField& field : fields) {
      line += ',';
      append_json_string(line, field.key);
      line += ':';
      append_value_json(line, field);
    }
    line += "}\n";
  } else {
    line += ts;
    line += ' ';
    std::string_view name = to_string(level);
    for (const char c : name) line += static_cast<char>(std::toupper(c));
    line.append(5 - name.size(), ' ');  // level column, "debug" is widest
    line += " [";
    line += component;
    line += "] ";
    line += msg;
    for (const LogField& field : fields) {
      line += ' ';
      line += field.key;
      line += '=';
      append_value_text(line, field);
    }
    line += '\n';
  }
  std::ostream* sink = sink_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (sink != nullptr) {
    (*sink) << line << std::flush;
  } else {
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
}

}  // namespace themis::obs::live
