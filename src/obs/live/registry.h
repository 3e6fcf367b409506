// Lock-free metrics for the live node.
//
// The simulator's obs::Counters is a map-keyed, allocating registry driven by
// exactly one thread per run.  The daemon's hot paths — the epoll reactor,
// the combining admission leader, the miner, PeerManager reader threads and
// the TxPool shards — are concurrent, so they get their own primitives:
//
//   * Counter / Gauge: one cache-line-padded atomic each.  Bumps are a single
//     relaxed fetch_add — wait-free, no false sharing between neighbours.
//   * Histogram: fixed log-scale (power-of-two) latency buckets over
//     nanoseconds, 1 µs up to ~18 min, each bucket an atomic count.  record()
//     is two relaxed fetch_adds; percentiles are estimated at scrape time by
//     interpolating inside the winning bucket (≤ one bucket width of error,
//     i.e. at most 2x — the standard Prometheus-histogram trade).
//
// The Registry hands out stable references: components register their metrics
// ONCE at startup (mutex-guarded, find-or-create by name) and cache the
// reference, so the hot path never pays a string lookup or an allocation.
// Scrapers (JSON /metrics, Prometheus /metrics.prom) walk snapshot vectors
// under the same registration mutex — scraping never blocks a bump.
//
// Metric names follow Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*) and
// may carry a fixed label set appended as `name{label="value"}`; samples
// sharing the name before '{' form one family in the exposition.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace themis::obs::live {

/// One monotone counter on its own cache line.
struct alignas(64) Counter {
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One instantaneous value (pool depth, ready peers, head height).
struct alignas(64) Gauge {
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log-scale latency histogram over nanoseconds.
///
/// Bucket i holds samples in (bound(i-1), bound(i)] with
/// bound(i) = 1024ns << i; the last bucket is the +Inf overflow.  Buckets
/// share cache lines (padding 32 buckets would cost 2 KiB per histogram);
/// same-bucket contention only slows the scraper's view, never a recorder.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Upper bound of bucket `i` in nanoseconds (the last bucket is +Inf).
  static constexpr std::uint64_t bound_ns(std::size_t i) {
    return std::uint64_t{1024} << i;
  }

  static std::size_t bucket_index(std::uint64_t ns) {
    // Smallest i with ns <= 1024 << i, clamped into the overflow bucket.
    const std::uint64_t scaled = (ns + 1023) >> 10;  // ceil(ns / 1024)
    if (scaled <= 1) return 0;
    const auto idx = static_cast<std::size_t>(
        std::bit_width(scaled - 1));
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  void record_ns(std::uint64_t ns) {
    counts_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t total = 0;
    std::uint64_t sum_ns = 0;
    /// Estimated quantile in nanoseconds, q in [0,1]; 0 when empty.
    double quantile_ns(double q) const;
    double mean_ns() const {
      return total == 0 ? 0.0
                        : static_cast<double>(sum_ns) /
                              static_cast<double>(total);
    }
  };
  Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.total += s.counts[i];
    }
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// RAII nanosecond timer feeding a Histogram (no-op on a null histogram).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_ns_ = 0;
};

/// Monotonic nanoseconds since an arbitrary (per-process) epoch.
std::uint64_t monotonic_ns();

class Registry {
 public:
  /// Find-or-create by name; the reference stays valid for the registry's
  /// lifetime (deque nodes are stable).  Call once at startup and cache.
  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help);

  /// Scrape-time gauge: `fn` is evaluated on every snapshot (for values a
  /// component already maintains atomically, e.g. TxPool::size()).  `fn`
  /// must be safe to call from any thread for the registry's lifetime.
  void gauge_fn(std::string_view name, std::string_view help,
                std::function<double()> fn);

  struct CounterSample {
    std::string name, help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name, help;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name, help;
    Histogram::Snapshot snap;
  };
  /// Snapshots in registration order (callback gauges after owned gauges).
  std::vector<CounterSample> counter_samples() const;
  std::vector<GaugeSample> gauge_samples() const;
  std::vector<HistogramSample> histogram_samples() const;

 private:
  template <typename T>
  struct Named {
    std::string name, help;
    T metric;
  };
  struct FnGauge {
    std::string name, help;
    std::function<double()> fn;
  };

  mutable std::mutex mu_;  ///< registration + snapshot only, never a bump
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
  std::vector<FnGauge> fn_gauges_;
  std::unordered_map<std::string, Counter*> counter_by_name_;
  std::unordered_map<std::string, Gauge*> gauge_by_name_;
  std::unordered_map<std::string, Histogram*> histogram_by_name_;
};

/// Family name: everything before the '{' of an optional label set.
std::string_view family_of(std::string_view sample_name);

}  // namespace themis::obs::live
