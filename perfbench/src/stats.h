// Sample statistics, CPU/RSS probes and live-histogram windows.
#pragma once

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/live/registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// CPU seconds consumed by the whole process.
double process_cpu_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// CPU seconds consumed by `thread` (any thread of this process).
double thread_cpu_s(pthread_t thread);

/// Current and peak resident set size (MiB), from /proc/self/status.
double rss_mb();
double peak_rss_mb();
/// Reset the kernel's peak-RSS mark to the current RSS, so the peak read
/// later covers only what runs after this call.  False when unsupported.
bool reset_peak_rss();

/// Per-window view of cumulative live histograms: the bucket counts that
/// arrived between two snapshots, summed over any number of nodes.
class HistWindow {
 public:
  /// Remember the current counts of every histogram named `name`.
  void begin(const std::vector<const themis::obs::live::Registry*>& regs,
             std::string_view name);
  /// Counts since begin().
  void end(const std::vector<const themis::obs::live::Registry*>& regs,
           std::string_view name);
  std::uint64_t count() const { return delta_.total; }
  double quantile_ms(double q) const { return delta_.quantile_ns(q) / 1e6; }

 private:
  static themis::obs::live::Histogram::Snapshot sum(
      const std::vector<const themis::obs::live::Registry*>& regs,
      std::string_view name);
  themis::obs::live::Histogram::Snapshot start_{};
  themis::obs::live::Histogram::Snapshot delta_{};
};

}  // namespace perfbench
