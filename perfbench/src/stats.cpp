#include "stats.h"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <string>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Value of a "Key:   123 kB" line of /proc/self/status, in MiB.
double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  return clock_s(id);
}

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

themis::obs::live::Histogram::Snapshot HistWindow::sum(
    const std::vector<const themis::obs::live::Registry*>& regs,
    std::string_view name) {
  themis::obs::live::Histogram::Snapshot total{};
  for (const auto* reg : regs) {
    for (const auto& h : reg->histogram_samples()) {
      if (h.name != name) continue;
      for (std::size_t i = 0; i < themis::obs::live::Histogram::kBuckets; ++i) {
        total.counts[i] += h.snap.counts[i];
      }
      total.total += h.snap.total;
      total.sum_ns += h.snap.sum_ns;
    }
  }
  return total;
}

void HistWindow::begin(
    const std::vector<const themis::obs::live::Registry*>& regs,
    std::string_view name) {
  start_ = sum(regs, name);
}

void HistWindow::end(
    const std::vector<const themis::obs::live::Registry*>& regs,
    std::string_view name) {
  const auto now = sum(regs, name);
  delta_ = {};
  for (std::size_t i = 0; i < themis::obs::live::Histogram::kBuckets; ++i) {
    delta_.counts[i] = now.counts[i] - start_.counts[i];
  }
  delta_.total = now.total - start_.total;
  delta_.sum_ns = now.sum_ns - start_.sum_ns;
}

}  // namespace perfbench
