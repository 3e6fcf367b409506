// Trace reader + analysis: JSONL parsing round-trips the tracer's output,
// hand-built trace streams produce the expected summaries, and a real
// experiment's trace yields per-epoch sigma_f^2 that matches the harness
// *exactly* (both feed the same metrics code).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "obs/observability.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "obs/trace_reader.h"
#include "sim/experiment.h"

namespace themis::obs {
namespace {

TEST(TraceReader, ParsesAllScalarKinds) {
  const auto event = parse_trace_line(
      R"({"t_ns":1500,"ev":"x","u":42,"i":-7,"f":0.25,"b":true,"s":"a\"b\\c",)"
      R"("big":18446744073709551615,"huge":1e30,"esc":"\u0001\/",)"
      R"("nested":{"u":1,"a":[2,{"s":"x"}]}})");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->t_ns, 1500);
  EXPECT_EQ(event->ev, "x");
  EXPECT_EQ(event->int_or("u", 0), 42);
  EXPECT_EQ(event->int_or("i", 0), -7);
  EXPECT_EQ(event->num_or("f", 0.0), 0.25);
  EXPECT_TRUE(event->bool_or("b", false));
  EXPECT_EQ(event->str_or("s", ""), "a\"b\\c");
  EXPECT_EQ(event->int_or("missing", -1), -1);
  // Past the int64 range, or not integral: int_or falls back, num_or reads.
  EXPECT_EQ(event->int_or("big", -1), -1);
  EXPECT_EQ(event->u64_or("big", 0), 18446744073709551615ull);
  EXPECT_EQ(event->num_or("big", 0.0), 18446744073709551615.0);
  EXPECT_EQ(event->int_or("huge", -1), -1);
  EXPECT_EQ(event->num_or("huge", 0.0), 1e30);
  EXPECT_EQ(event->u64_or("i", 9), 9u);
  EXPECT_EQ(event->str_or("esc", ""), "\x01/");
  // A nested value parses; the scalar accessors pass over it.
  EXPECT_EQ(event->int_or("nested", -1), -1);
  EXPECT_EQ(event->num_or("nested", -1.0), -1.0);
  EXPECT_EQ(event->str_or("nested", "none"), "none");
  EXPECT_FALSE(event->bool_or("nested", false));
}

TEST(TraceReader, RejectsMalformedLines) {
  EXPECT_FALSE(parse_trace_line("").has_value());
  EXPECT_FALSE(parse_trace_line("not json").has_value());
  EXPECT_FALSE(parse_trace_line(R"({"t_ns":1)").has_value());
  EXPECT_FALSE(parse_trace_line(R"({"t_ns":1,"x":2})").has_value());  // no ev
  EXPECT_FALSE(parse_trace_line(R"({"t_ns":1,"ev":"a"} x)").has_value());
  EXPECT_FALSE(parse_trace_line(R"([{"t_ns":1,"ev":"a"}])").has_value());
  EXPECT_FALSE(parse_trace_line(R"({"t_ns":"1","ev":"a"})").has_value());
}

TEST(TraceReader, RoundTripsTracerOutput) {
  EventTracer tracer;
  tracer.enable(true);
  tracer.emit(SimTime::nanos(12), "block_mined",
              {Field::u64("node", 3), Field::str("hash", "ab\"cd"),
               Field::f64("diff", 1.0 / 3.0), Field::boolean("ok", false)});
  ASSERT_EQ(tracer.size(), 1u);

  const auto event = parse_trace_line(tracer.lines()[0]);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->t_ns, 12);
  EXPECT_EQ(event->ev, "block_mined");
  EXPECT_EQ(event->int_or("node", 0), 3);
  EXPECT_EQ(event->str_or("hash", ""), "ab\"cd");
  EXPECT_EQ(event->num_or("diff", 0.0), 1.0 / 3.0);  // exact round-trip
  EXPECT_FALSE(event->bool_or("ok", true));
}

TEST(TraceReader, CountsMalformedAndSkipsBlank) {
  std::stringstream buf;
  buf << R"({"t_ns":1,"ev":"a"})" << "\n\n"
      << "garbage\n"
      << R"({"t_ns":2,"ev":"b"})" << "\n";
  const TraceSummary summary = analyze_trace(buf);
  EXPECT_EQ(summary.total_events, 2u);
  EXPECT_EQ(summary.malformed_lines, 1u);
}

TEST(TraceAnalysis, SummarizesHandBuiltTrace) {
  std::stringstream buf;
  buf << R"({"t_ns":0,"ev":"run_meta","algorithm":"themis","n_nodes":4,"delta":2,"seed":9})"
      << "\n"
      << R"({"t_ns":1000000000,"ev":"block_mined","node":0,"hash":"aa","height":1})"
      << "\n"
      << R"({"t_ns":3000000000,"ev":"block_received","node":1,"hash":"aa","height":1})"
      << "\n"
      << R"({"t_ns":5000000000,"ev":"block_received","node":2,"hash":"aa","height":1})"
      << "\n"
      << R"({"t_ns":5000000000,"ev":"reorg","node":2,"depth":3})"
      << "\n"
      << R"({"t_ns":6000000000,"ev":"reorg","node":1,"depth":1})"
      << "\n"
      << R"({"t_ns":1,"ev":"gossip_send","from":0,"to":1,"bytes":100})"
      << "\n"
      << R"({"t_ns":2,"ev":"gossip_dup","from":1,"to":0})"
      << "\n"
      << R"({"t_ns":7000000000,"ev":"chain_block","height":1,"producer":0})"
      << "\n"
      << R"({"t_ns":7000000000,"ev":"chain_block","height":2,"producer":1})"
      << "\n"
      << R"({"t_ns":8000000000,"ev":"reorg","node":1,"depth":inf})"
      << "\n";
  const TraceSummary summary = analyze_trace(buf);
  EXPECT_EQ(summary.malformed_lines, 1u) << "inf is not JSON";
  EXPECT_EQ(summary.total_events, 10u);
  const std::map<std::string, std::uint64_t> kinds{
      {"block_mined", 1}, {"block_received", 2}, {"chain_block", 2},
      {"gossip_dup", 1},  {"gossip_send", 1},    {"reorg", 2},
      {"run_meta", 1}};
  EXPECT_EQ(summary.event_counts, kinds);

  EXPECT_EQ(summary.algorithm, "themis");
  EXPECT_EQ(summary.n_nodes, 4u);
  EXPECT_EQ(summary.delta, 2u);

  // Node 0 mined one block; nodes 1 and 2 received it 2s and 4s later.
  EXPECT_EQ(summary.nodes.at(0).mined, 1u);
  EXPECT_EQ(summary.nodes.at(1).received, 1u);
  EXPECT_EQ(summary.propagation.samples, 2u);
  EXPECT_EQ(summary.propagation.p50_s, 2.0);
  EXPECT_EQ(summary.propagation.max_s, 4.0);

  EXPECT_EQ(summary.reorgs.count, 2u);
  EXPECT_EQ(summary.reorgs.max_depth, 3u);
  EXPECT_EQ(summary.reorgs.mean_depth, 2.0);

  EXPECT_EQ(summary.gossip_sends, 1u);
  EXPECT_EQ(summary.gossip_bytes, 100u);
  EXPECT_EQ(summary.gossip_dup_drops, 1u);

  ASSERT_EQ(summary.chain_producers.size(), 2u);
  EXPECT_EQ(summary.chain_producers[0], 0u);
  EXPECT_EQ(summary.chain_producers[1], 1u);
  // One full epoch of delta=2 blocks: producers {0,1} over n=4 nodes.
  ASSERT_EQ(summary.per_epoch_sigma_f2.size(), 1u);
}

// Acceptance criterion: themis-trace's sigma_f^2 equals
// PoxExperiment::per_epoch_frequency_variance() bit for bit, because the
// analysis feeds the traced chain into the same metrics function.
TEST(TraceAnalysis, SigmaF2MatchesExperimentExactly) {
  Observability obs;
  obs.tracer.enable(true);
  sim::PoxConfig config;
  config.algorithm = core::Algorithm::kThemis;
  config.n_nodes = 20;
  config.beta = 2.0;
  config.seed = 91;
  config.obs = &obs;
  sim::PoxExperiment exp(config);
  exp.run_to_height(3 * exp.delta() + 2);
  exp.emit_trace_summary();

  std::stringstream buf;
  obs.tracer.write_jsonl(buf);
  const TraceSummary summary = analyze_trace(buf);
  ASSERT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.total_events, obs.tracer.size());
  EXPECT_EQ(summary.event_counts.at("chain_block"),
            exp.main_chain_producers().size());

  EXPECT_EQ(summary.chain_producers, exp.main_chain_producers());
  const std::vector<double> expected = exp.per_epoch_frequency_variance();
  ASSERT_EQ(summary.per_epoch_sigma_f2.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(summary.per_epoch_sigma_f2[e], expected[e]) << "epoch " << e;
  }
}

// JSON has no NaN or infinity: the tracer writes such a field as null, so
// the line stays an event and the field reads as absent.
TEST(TraceAnalysis, NonFiniteTracerFieldsStayEvents) {
  EventTracer tracer;
  tracer.enable(true);
  tracer.emit(SimTime::nanos(3), "retarget",
              {Field::f64("new_base", std::nan("")),
               Field::f64("hi", std::numeric_limits<double>::infinity()),
               Field::f64("lo", -std::numeric_limits<double>::infinity())});
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.lines()[0],
            R"({"t_ns":3,"ev":"retarget","new_base":null,"hi":null,"lo":null})");
  std::stringstream buf;
  tracer.write_jsonl(buf);
  const TraceSummary summary = analyze_trace(buf);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.total_events, 1u);
  ASSERT_EQ(summary.base_difficulty_per_epoch.size(), 1u);
  EXPECT_EQ(summary.base_difficulty_per_epoch[0], 0.0);  // num_or's fallback
}

TEST(TraceAnalysis, PrintSummaryMentionsEverySection) {
  std::stringstream buf;
  buf << R"({"t_ns":0,"ev":"run_meta","algorithm":"themis","n_nodes":2,"delta":1,"seed":1})"
      << "\n"
      << R"({"t_ns":5,"ev":"block_mined","node":0,"hash":"aa","height":1})"
      << "\n";
  const TraceSummary summary = analyze_trace(buf);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.event_counts.at("block_mined"), 1u);
  std::ostringstream out;
  print_summary(out, summary);
  const std::string text = out.str();
  EXPECT_NE(text.find("trace summary"), std::string::npos);
  EXPECT_NE(text.find("per-node timeline"), std::string::npos);
  EXPECT_NE(text.find("reorgs"), std::string::npos);
}

}  // namespace
}  // namespace themis::obs
