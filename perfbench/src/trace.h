// In-memory span recorder for traced runs.
//
// A span is (id, parent, name, start, end) in steady-clock nanoseconds;
// spans of one client request share the request id the client carries in
// its POST target, so the server-side handler span names the client span as
// its parent.  Spans stay in memory and are written as JSONL when the run
// ends.  A disabled tracer records nothing (one branch per call site).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  static std::int64_t now_ns();
  /// A fresh span / request id (never 0).
  std::uint64_t next_id();
  void record(Span span);
  /// Copy of every recorded span.
  std::vector<Span> spans() const;
  /// Write one JSON object per span; false on I/O failure.
  bool write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Duration of each span minus the part of its interval that its child
/// spans cover (children clipped to the parent, overlaps merged), keyed by
/// span id.
std::map<std::uint64_t, double> self_times_ms(const std::vector<Span>& spans);

}  // namespace perfbench
