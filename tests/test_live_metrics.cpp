// Tests for the live-node telemetry layer (obs/live): lock-free registry
// primitives, Prometheus text exposition, structured logging and the
// tx-lifecycle stage tracker.
//
// The concurrency storm tests are the reason this file exists: they run the
// exact hot-path pattern the daemon uses (many bumping threads, one scraping
// thread) and are expected to pass under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "obs/live/log.h"
#include "obs/live/prometheus.h"
#include "obs/live/registry.h"
#include "obs/live/stage_tracker.h"

namespace live = themis::obs::live;
using themis::Hash32;

namespace {

Hash32 make_id(std::uint8_t first, std::uint8_t second = 0) {
  Hash32 id{};
  id[0] = first;
  id[1] = second;
  return id;
}

/// Restore the global logger to its quiet default when a test exits.
struct LoggerGuard {
  ~LoggerGuard() {
    live::Logger& logger = live::Logger::global();
    logger.set_level(live::LogLevel::off);
    logger.set_json(false);
    logger.set_sink(nullptr);
  }
};

}  // namespace

// --- counters and gauges ----------------------------------------------------

TEST(LiveCounter, IncrementsAndReads) {
  live::Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);
}

TEST(LiveGauge, SetAndAdd) {
  live::Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.get(), 7);
}

// --- histogram --------------------------------------------------------------

TEST(LiveHistogram, BucketIndexBoundaries) {
  // Bucket i covers (1024 << (i-1), 1024 << i] nanoseconds.
  EXPECT_EQ(live::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(live::Histogram::bucket_index(1), 0u);
  EXPECT_EQ(live::Histogram::bucket_index(1024), 0u);
  EXPECT_EQ(live::Histogram::bucket_index(1025), 1u);
  EXPECT_EQ(live::Histogram::bucket_index(2048), 1u);
  EXPECT_EQ(live::Histogram::bucket_index(2049), 2u);
  EXPECT_EQ(live::Histogram::bucket_index(live::Histogram::bound_ns(7)), 7u);
  EXPECT_EQ(live::Histogram::bucket_index(live::Histogram::bound_ns(7) + 1),
            8u);
  // Far beyond the last finite bound: clamps into the overflow bucket.
  EXPECT_EQ(live::Histogram::bucket_index(~std::uint64_t{0} / 2),
            live::Histogram::kBuckets - 1);
}

TEST(LiveHistogram, SnapshotCountsAndMean) {
  live::Histogram h;
  h.record_ns(1000);    // bucket 0
  h.record_ns(2000);    // bucket 1
  h.record_ns(300000);  // bucket 9 (262144 < 300000 <= 524288)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.sum_ns, 303000u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[9], 1u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 101000.0);
}

TEST(LiveHistogram, QuantileInterpolatesInsideBucket) {
  live::Histogram h;
  for (int i = 0; i < 100; ++i) h.record_ns(1500);  // all in bucket 1
  const auto snap = h.snapshot();
  const double p50 = snap.quantile_ns(0.50);
  // The estimate must land inside bucket 1's range (1024, 2048].
  EXPECT_GT(p50, 1024.0);
  EXPECT_LE(p50, 2048.0);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.quantile_ns(0.50), snap.quantile_ns(0.99));
}

TEST(LiveHistogram, QuantileEmptyIsZero) {
  live::Histogram h;
  EXPECT_EQ(h.snapshot().quantile_ns(0.99), 0.0);
}

// --- registry ---------------------------------------------------------------

TEST(LiveRegistry, FindOrCreateReturnsStableReference) {
  live::Registry r;
  live::Counter& a = r.counter("test_total", "help text");
  live::Counter& b = r.counter("test_total", "ignored on re-register");
  EXPECT_EQ(&a, &b);
  live::Histogram& h1 = r.histogram("test_seconds", "");
  live::Histogram& h2 = r.histogram("test_seconds", "");
  EXPECT_EQ(&h1, &h2);
}

TEST(LiveRegistry, SamplesInRegistrationOrder) {
  live::Registry r;
  r.counter("first_total", "").inc(1);
  r.counter("second_total", "").inc(2);
  const auto samples = r.counter_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "first_total");
  EXPECT_EQ(samples[0].value, 1u);
  EXPECT_EQ(samples[1].name, "second_total");
  EXPECT_EQ(samples[1].value, 2u);
}

TEST(LiveRegistry, GaugeFnEvaluatedAtScrape) {
  live::Registry r;
  std::atomic<int> depth{5};
  r.gauge_fn("depth", "", [&depth] { return static_cast<double>(depth.load()); });
  EXPECT_EQ(r.gauge_samples().back().value, 5.0);
  depth = 9;
  EXPECT_EQ(r.gauge_samples().back().value, 9.0);
}

TEST(LiveRegistry, FamilyOfStripsLabels) {
  EXPECT_EQ(live::family_of("plain_total"), "plain_total");
  EXPECT_EQ(live::family_of("rpc_total{method=\"submit_tx\"}"), "rpc_total");
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, GoldenCounterAndGauge) {
  live::Registry r;
  r.counter("themis_txs_total", "Transactions seen.").inc(42);
  r.gauge("themis_pool_depth", "Pending transactions.").set(7);
  const std::string text = live::render_prometheus(r);
  EXPECT_EQ(text,
            "# HELP themis_txs_total Transactions seen.\n"
            "# TYPE themis_txs_total counter\n"
            "themis_txs_total 42\n"
            "# HELP themis_pool_depth Pending transactions.\n"
            "# TYPE themis_pool_depth gauge\n"
            "themis_pool_depth 7\n");
}

TEST(Prometheus, LabeledSamplesShareOneFamilyHeader) {
  live::Registry r;
  r.counter("rpc_total{method=\"a\"}", "Requests.").inc(1);
  r.counter("rpc_total{method=\"b\"}", "Requests.").inc(2);
  const std::string text = live::render_prometheus(r);
  // HELP/TYPE once, then both labeled samples.
  EXPECT_EQ(text.find("# TYPE rpc_total counter"),
            text.rfind("# TYPE rpc_total counter"));
  EXPECT_NE(text.find("rpc_total{method=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_total{method=\"b\"} 2\n"), std::string::npos);
}

TEST(Prometheus, HistogramExposition) {
  live::Registry r;
  live::Histogram& h = r.histogram("lat_seconds", "Latency.");
  h.record_ns(1000);  // bucket 0, bound 1024ns = 1.024e-06 s
  const std::string text = live::render_prometheus(r);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1.024e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 1e-06\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);
  // Cumulative buckets: every bucket line carries the full count by the end.
  std::size_t bucket_lines = 0;
  for (std::size_t pos = text.find("lat_seconds_bucket");
       pos != std::string::npos;
       pos = text.find("lat_seconds_bucket", pos + 1)) {
    ++bucket_lines;
  }
  EXPECT_EQ(bucket_lines, live::Histogram::kBuckets);
}

// --- structured logging -----------------------------------------------------

TEST(LiveLog, LevelGateSuppressesBelowThreshold) {
  LoggerGuard guard;
  std::ostringstream sink;
  live::Logger& logger = live::Logger::global();
  logger.set_sink(&sink);
  logger.set_level(live::LogLevel::warn);
  live::log_info("test", "should not appear");
  live::log_warn("test", "should appear");
  const std::string text = sink.str();
  EXPECT_EQ(text.find("should not appear"), std::string::npos);
  EXPECT_NE(text.find("should appear"), std::string::npos);
}

TEST(LiveLog, JsonRecordShape) {
  LoggerGuard guard;
  std::ostringstream sink;
  live::Logger& logger = live::Logger::global();
  logger.set_sink(&sink);
  logger.set_level(live::LogLevel::info);
  logger.set_json(true);
  live::log_info("p2p", "peer ready",
                 {{"node", std::uint64_t{3}}, {"ok", true}, {"name", "a\"b"}});
  const std::string line = sink.str();
  EXPECT_EQ(line.find("{\"ts\":\""), 0u);
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"p2p\""), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"peer ready\""), std::string::npos);
  EXPECT_NE(line.find("\"node\":3"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  // Quote inside a value is escaped, keeping the line valid JSON.
  EXPECT_NE(line.find("\"name\":\"a\\\"b\""), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(LiveLog, HumanRecordShape) {
  LoggerGuard guard;
  std::ostringstream sink;
  live::Logger& logger = live::Logger::global();
  logger.set_sink(&sink);
  logger.set_level(live::LogLevel::debug);
  live::log_error("miner", "boom", {{"height", std::uint64_t{9}}});
  const std::string line = sink.str();
  EXPECT_NE(line.find("ERROR [miner] boom height=9"), std::string::npos);
}

TEST(LiveLog, ParseLevelNames) {
  EXPECT_EQ(live::log_level_from("debug"), live::LogLevel::debug);
  EXPECT_EQ(live::log_level_from("warn"), live::LogLevel::warn);
  EXPECT_EQ(live::log_level_from("error"), live::LogLevel::error);
  EXPECT_EQ(live::log_level_from("off"), live::LogLevel::off);
  EXPECT_EQ(live::log_level_from("bogus"), live::LogLevel::info);
}

// --- stage tracker ----------------------------------------------------------

TEST(StageTracker, StampsAreMonotoneAndFeedTransitions) {
  live::Registry r;
  live::StageTracker tracker(r);
  const Hash32 id = make_id(1);
  tracker.stamp(id, live::TxStage::submitted, 1000);
  tracker.stamp(id, live::TxStage::verified, 2000);
  tracker.stamp(id, live::TxStage::pooled, 3000);
  tracker.stamp(id, live::TxStage::included, 4000);
  tracker.stamp(id, live::TxStage::confirmed, 5000);

  const auto stamps = tracker.stamps(id);
  ASSERT_TRUE(stamps.has_value());
  for (std::size_t s = 0; s < live::kTxStageCount; ++s) {
    ASSERT_NE((*stamps)[s], 0u) << "stage " << s << " never stamped";
    if (s > 0) {
      EXPECT_LE((*stamps)[s - 1], (*stamps)[s])
          << "stage " << s << " stamped before its predecessor";
    }
  }

  // One sample per transition histogram, plus the end-to-end one.
  for (const auto& h : r.histogram_samples()) {
    EXPECT_EQ(h.snap.total, 1u) << h.name;
  }
}

TEST(StageTracker, FirstArrivalWins) {
  live::Registry r;
  live::StageTracker tracker(r);
  const Hash32 id = make_id(2);
  tracker.stamp(id, live::TxStage::submitted, 1000);
  const auto first = tracker.stamps(id);
  tracker.stamp(id, live::TxStage::submitted, 2000);  // re-stamp: ignored
  const auto second = tracker.stamps(id);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*first)[0], (*second)[0]);
}

TEST(StageTracker, SkippedStageMeasuresFromLatestEarlier) {
  live::Registry r;
  live::StageTracker tracker(r);
  const Hash32 id = make_id(3);
  // A relayed block can include a tx this node never verified or pooled.
  tracker.stamp(id, live::TxStage::submitted, 1000);
  tracker.stamp(id, live::TxStage::included, 2000);
  for (const auto& h : r.histogram_samples()) {
    if (h.name == "themis_tx_stage_inclusion_seconds") {
      EXPECT_EQ(h.snap.total, 1u);  // measured submitted -> included
    } else if (h.name == "themis_tx_stage_verify_seconds" ||
               h.name == "themis_tx_stage_pool_seconds") {
      EXPECT_EQ(h.snap.total, 0u);  // stages never reached
    }
  }
}

TEST(StageTracker, StampWithNoPredecessorRecordsNoLatency) {
  live::Registry r;
  live::StageTracker tracker(r);
  // e.g. a block arrives carrying a tx the node has never seen at all.
  tracker.stamp(make_id(4), live::TxStage::included, 1000);
  for (const auto& h : r.histogram_samples()) {
    EXPECT_EQ(h.snap.total, 0u) << h.name;
  }
}

TEST(StageTracker, StampIsNeverEarlierThanItsPredecessor) {
  live::Registry r;
  live::StageTracker tracker(r);
  const Hash32 id = make_id(6);
  // Admission reads the clock before the consensus lock, so a racing
  // caller's verified time can precede the submitted time already stamped.
  tracker.stamp(id, live::TxStage::submitted, 2000);
  tracker.stamp(id, live::TxStage::verified, 1500);
  const auto stamps = tracker.stamps(id);
  ASSERT_TRUE(stamps.has_value());
  EXPECT_EQ((*stamps)[static_cast<std::size_t>(live::TxStage::verified)],
            2000u);
  for (const auto& h : r.histogram_samples()) {
    if (h.name == "themis_tx_stage_verify_seconds") {
      EXPECT_EQ(h.snap.total, 1u);
      EXPECT_EQ(h.snap.sum_ns, 0u);
    }
  }
}

TEST(StageTracker, EvictsOldestWhenFull) {
  live::Registry r;
  live::StageTracker tracker(r, /*capacity=*/1);
  const Hash32 older = make_id(5, 1);
  const Hash32 newer = make_id(5, 2);
  tracker.stamp(older, live::TxStage::submitted, 1000);
  tracker.stamp(newer, live::TxStage::submitted, 2000);
  EXPECT_FALSE(tracker.stamps(older).has_value());
  EXPECT_TRUE(tracker.stamps(newer).has_value());
}

// --- concurrency storms (ThreadSanitizer targets) ---------------------------

TEST(LiveRegistryStorm, ConcurrentBumpsWithConcurrentScrapes) {
  live::Registry r;
  live::Counter& counter = r.counter("storm_total", "");
  live::Gauge& gauge = r.gauge("storm_gauge", "");
  live::Histogram& histogram = r.histogram("storm_seconds", "");

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    // Scrape continuously while writers hammer: must be race-free and the
    // totals must only grow.
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      live::render_prometheus(r);
      const auto samples = r.counter_samples();
      ASSERT_FALSE(samples.empty());
      EXPECT_GE(samples[0].value, last);
      last = samples[0].value;
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.inc();
        gauge.set(i);
        histogram.record_ns(static_cast<std::uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter.get(), std::uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(histogram.snapshot().total, std::uint64_t{kThreads} * kOpsPerThread);
}

