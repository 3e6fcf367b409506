// Observability subsystem: tracer format and sink, profiling scopes, report
// rendering — and the determinism contract that a traced run produces
// exactly the chain an untraced run does.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"
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
  std::ostringstream out;
  tracer.set_sink(&out);
  tracer.emit(SimTime::nanos(1500), "kitchen_sink",
              {Field::u64("u", 42), Field::i64("i", -7),
               Field::f64("f", 0.25), Field::boolean("b", true),
               Field::str("s", "a\"b\\c")});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(out.str(),
            "{\"t_ns\":1500,\"ev\":\"kitchen_sink\",\"u\":42,\"i\":-7,"
            "\"f\":0.25,\"b\":true,\"s\":\"a\\\"b\\\\c\"}\n");
}

// The tracer holds no records: each is in the sink when emit returns.
TEST(ObsTracer, RecordReachesTheSinkWhenEmitted) {
  EventTracer tracer;
  std::ostringstream out;
  tracer.set_sink(&out);
  tracer.emit(SimTime::zero(), "a", {});
  EXPECT_EQ(out.str(), "{\"t_ns\":0,\"ev\":\"a\"}\n");
  tracer.emit(SimTime::nanos(5), "b", {Field::u64("x", 1)});
  EXPECT_EQ(out.str(), "{\"t_ns\":0,\"ev\":\"a\"}\n"
                       "{\"t_ns\":5,\"ev\":\"b\",\"x\":1}\n");
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(ObsTracer, OpenStreamsToAFileUntilClosed) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("themis_obs_trace_" + std::to_string(::getpid()) + ".jsonl");
  EventTracer tracer;
  ASSERT_TRUE(tracer.open(path.string()));
  tracer.emit(SimTime::nanos(7), "a", {Field::boolean("ok", true)});
  EXPECT_TRUE(tracer.close());
  tracer.emit(SimTime::nanos(8), "after_close", {});  // tracing stopped
  EXPECT_EQ(tracer.size(), 1u);
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  EXPECT_EQ(text.str(), "{\"t_ns\":7,\"ev\":\"a\",\"ok\":true}\n");
  std::filesystem::remove(path);
  EXPECT_FALSE(tracer.open((path / "not_a_dir" / "x").string()));
  EXPECT_FALSE(tracer.enabled());
}

TEST(ObsTracer, DoubleFormattingRoundTrips) {
  EventTracer tracer;
  std::ostringstream out;
  tracer.set_sink(&out);
  tracer.emit(SimTime::zero(), "d",
              {Field::f64("a", 0.1), Field::f64("b", 1.0 / 3.0)});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(out.str(),
            "{\"t_ns\":0,\"ev\":\"d\",\"a\":0.1,\"b\":0.3333333333333333}\n");
  const Json line = Json::parse(out.str());
  EXPECT_EQ(line["a"].as_double(), 0.1);
  EXPECT_EQ(line["b"].as_double(), 1.0 / 3.0);
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
  obs.registry.counter("themis_sim_gossip_deliveries_total", "Deliveries.")
      .inc(7);
  obs.registry.histogram("themis_sim_block_interval_seconds", "Intervals.")
      .record_ns(4'000'000'000);
  obs.registry.gauge_fn("themis_sim_base_difficulty{epoch=\"0\"}", "D_base.",
                        [] { return 2.5; });
  obs.profiler.scope("consensus.mine_block").calls = 3;
  std::ostringstream out;
  write_report(out, obs);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE themis_sim_gossip_deliveries_total counter\n"
                      "themis_sim_gossip_deliveries_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("themis_sim_block_interval_seconds_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("themis_sim_base_difficulty{epoch=\"0\"} 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("themis_sim_trace_events 0\n"), std::string::npos);
  // The wall-clock profile follows the samples, as comments.
  EXPECT_NE(text.find("\n# consensus.mine_block: calls=3 "), std::string::npos);
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
  std::ostringstream trace;
  obs.tracer.set_sink(&trace);
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
  EXPECT_FALSE(trace.str().empty());
  EXPECT_GT(obs.registry.counter("themis_sim_gossip_deliveries_total", "")
                .get(),
            0u);
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
