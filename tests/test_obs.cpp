// Observability subsystem: tracer format, counter/histogram registry,
// profiling scopes, report rendering — and the determinism contract that a
// traced run produces exactly the chain an untraced run does.
#include <gtest/gtest.h>

#include <sstream>

#include "common/json.h"
#include "obs/counters.h"
#include "obs/observability.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/experiment.h"

namespace themis::obs {
namespace {

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  EventTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.emit(SimTime::seconds(1.0), "block_mined", {Field::u64("node", 3)});
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsTracer, RendersAllFieldTypes) {
  EventTracer tracer;
  tracer.enable(true);
  tracer.emit(SimTime::nanos(1500), "kitchen_sink",
              {Field::u64("u", 42), Field::i64("i", -7),
               Field::f64("f", 0.25), Field::boolean("b", true),
               Field::str("s", "a\"b\\c")});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.lines()[0],
            "{\"t_ns\":1500,\"ev\":\"kitchen_sink\",\"u\":42,\"i\":-7,"
            "\"f\":0.25,\"b\":true,\"s\":\"a\\\"b\\\\c\"}");
}

TEST(ObsTracer, WriteJsonlEmitsOneLinePerEvent) {
  EventTracer tracer;
  tracer.enable(true);
  tracer.emit(SimTime::zero(), "a", {});
  tracer.emit(SimTime::nanos(5), "b", {Field::u64("x", 1)});
  std::ostringstream out;
  tracer.write_jsonl(out);
  EXPECT_EQ(out.str(), "{\"t_ns\":0,\"ev\":\"a\"}\n"
                       "{\"t_ns\":5,\"ev\":\"b\",\"x\":1}\n");
}

TEST(ObsTracer, DoubleFormattingRoundTrips) {
  EventTracer tracer;
  tracer.enable(true);
  tracer.emit(SimTime::zero(), "d",
              {Field::f64("a", 0.1), Field::f64("b", 1.0 / 3.0)});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.lines()[0],
            "{\"t_ns\":0,\"ev\":\"d\",\"a\":0.1,\"b\":0.3333333333333333}");
  const Json line = Json::parse(tracer.lines()[0]);
  EXPECT_EQ(line["a"].as_double(), 0.1);
  EXPECT_EQ(line["b"].as_double(), 1.0 / 3.0);
}

TEST(ObsCounters, HistogramPercentilesNearestRank) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.percentile(50), 50.0);
  EXPECT_EQ(h.percentile(90), 90.0);
  EXPECT_EQ(h.percentile(99), 99.0);
  EXPECT_EQ(h.percentile(100), 100.0);
}

TEST(ObsCounters, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(ObsCounters, RegistryReferencesAreStable) {
  Counters counters;
  std::uint64_t& a = counters.counter("a");
  a = 5;
  for (int i = 0; i < 100; ++i) counters.counter("pad" + std::to_string(i));
  EXPECT_EQ(&counters.counter("a"), &a);
  EXPECT_EQ(counters.counter("a"), 5u);
}

TEST(ObsCounters, LinkStatsAccumulatePerDirectedEdge) {
  Counters counters;
  counters.link(1, 2).messages += 1;
  counters.link(1, 2).bytes += 100;
  counters.link(2, 1).messages += 1;
  EXPECT_EQ(counters.links().size(), 2u);
  EXPECT_EQ(counters.links().at({1, 2}).bytes, 100u);
  EXPECT_EQ(counters.links().at({2, 1}).messages, 1u);
}

TEST(ObsProfiler, ScopeAccumulatesCalls) {
  Profiler profiler;
  ScopeStat& stat = profiler.scope("hot");
  for (int i = 0; i < 3; ++i) ProfileScope scope(&stat);
  EXPECT_EQ(stat.calls, 3u);
}

TEST(ObsProfiler, NullScopeIsNoop) {
  ProfileScope scope(static_cast<ScopeStat*>(nullptr));  // must not crash
  ProfileScope named(static_cast<Profiler*>(nullptr), "x");
}

TEST(ObsReport, RendersDeterministicSections) {
  Observability obs;
  obs.counters.counter("gossip.deliveries") = 7;
  obs.counters.histogram("chain.block_interval_s").record(4.0);
  obs.counters.series("difficulty.base_per_epoch") = {1.0, 2.0};
  obs.counters.link(0, 1).messages = 3;
  obs.counters.link(0, 1).bytes = 300;
  std::ostringstream out;
  write_report(out, obs);
  const std::string text = out.str();
  EXPECT_NE(text.find("gossip.deliveries"), std::string::npos);
  EXPECT_NE(text.find("chain.block_interval_s"), std::string::npos);
  EXPECT_NE(text.find("difficulty.base_per_epoch"), std::string::npos);
  std::ostringstream again;
  write_report(again, obs);
  EXPECT_EQ(text, again.str());
}

// The acceptance criterion for the whole subsystem: attaching a bundle with
// tracing enabled must not perturb the simulation.  Same config, same seed,
// with and without observation -> bit-identical main chains.
TEST(ObsDeterminism, TracedRunProducesIdenticalMainChain) {
  sim::PoxConfig config;
  config.algorithm = core::Algorithm::kThemis;
  config.n_nodes = 20;
  config.beta = 2.0;
  config.seed = 91;
  config.fanout = 3;

  sim::PoxExperiment plain(config);
  const std::uint64_t delta = plain.delta();
  const std::uint64_t target = 2 * delta + 5;
  plain.run_to_height(target);

  Observability obs;
  obs.tracer.enable(true);
  sim::PoxConfig traced_config = config;
  traced_config.obs = &obs;
  sim::PoxExperiment traced(traced_config);
  traced.run_to_height(target);
  traced.emit_trace_summary();

  EXPECT_EQ(plain.reference().head(), traced.reference().head());
  EXPECT_EQ(plain.main_chain_producers(), traced.main_chain_producers());
  EXPECT_EQ(plain.elapsed(), traced.elapsed());
  EXPECT_EQ(plain.per_epoch_frequency_variance(),
            traced.per_epoch_frequency_variance());
  EXPECT_GT(obs.tracer.size(), 0u);
  EXPECT_GT(obs.counters.counters().at("gossip.deliveries"), 0u);
}

TEST(ObsDeterminism, ProfilingScopesRecordHotPaths) {
  Observability obs;
  sim::PoxConfig config;
  config.algorithm = core::Algorithm::kThemis;
  config.n_nodes = 20;
  config.beta = 2.0;
  config.seed = 5;
  config.obs = &obs;
  sim::PoxExperiment exp(config);
  exp.run_to_height(exp.delta());
  const auto& scopes = obs.profiler.scopes();
  ASSERT_TRUE(scopes.contains("consensus.mine_block"));
  ASSERT_TRUE(scopes.contains("consensus.update_head"));
  EXPECT_GT(scopes.at("consensus.mine_block").calls, 0u);
  EXPECT_GT(scopes.at("consensus.update_head").calls, 0u);
}

}  // namespace
}  // namespace themis::obs
