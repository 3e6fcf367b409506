// sim-n2000: the discrete-event simulator at the Fig. 6 / sim_scale shape.
//
// Each repetition builds a PoxExperiment (timed as set-up) and runs it to a
// fixed main-chain height in one-height slices of run_to_height, timing each
// slice.  A run simulates kSubSeeds seeds derived from --seed, in rounds of
// one repetition per seed, until the window is used up (at least two rounds,
// so every seed has a pair to compare for determinism).  The slowest heights
// are the ones where forks happen, which differ from seed to seed; pooling
// several seeds' heights keeps the tail percentile from resting on one
// seed's two or three slowest heights.  In a traced run the odd rounds
// attach the experiment's profiler (tracer off), so profiled and unprofiled
// wall times come from one process.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>

#include "bench.h"
#include "checks.h"
#include "common/bytes.h"
#include "common/serialize.h"
#include "consensus/head_tracker.h"
#include "core/geost.h"
#include "crypto/sha256.h"
#include "metrics/equality.h"
#include "obs/observability.h"
#include "sim/experiment.h"
#include "sim/power_dist.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 2000;
constexpr std::uint64_t kHeight = 60;
constexpr std::uint32_t kTxsPerBlock = 4096;
constexpr std::size_t kSubSeeds = 3;
constexpr std::size_t kMinRounds = 2;
constexpr std::size_t kMaxRounds = 4;
constexpr int kSetups = 9;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return seed + 1'000'003ULL * k;
}

/// Outputs recorded for --seed 1 (the default seed; its first sub-seed is
/// seed 1 itself): any drift in the simulator's results at this seed is a
/// correctness failure.
const SimDigest kRecordedSeed1{
    .events = 2220355,
    .tps = 779.59148656546552,
    .blocks = 75,
    .stale = 15,
    .producers =
        "9b7577d6038c0bf35dea0cfc3c01a95282231c1ff6955d3d85e9c8e4378fd0fc"};

themis::sim::PoxConfig sim_config(std::uint64_t seed) {
  themis::sim::PoxConfig config;
  config.algorithm = themis::core::Algorithm::kThemis;
  config.n_nodes = kNodes;
  config.hash_rates = themis::sim::uniform_power(kNodes, config.h0);
  config.beta = 8;
  config.expected_interval_s = 4.0;
  config.txs_per_block = kTxsPerBlock;
  config.seed = seed;
  return config;
}

struct Rep {
  bool profiled = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_ms;
  SimDigest digest;
  std::uint64_t committed_txs = 0;
  // Layer figures (profiled repetitions only).
  std::uint64_t queue_peak = 0;
  std::uint64_t gossip_messages = 0;
  double redundant_push_ratio = 0.0;
  double accept_ns = 0.0, update_head_ns = 0.0, mine_ns = 0.0;
  double geost_insert_us = 0.0;
  double equality_ms = 0.0;
};

/// Node 0's final block tree, replayed in receipt order through a fresh
/// BlockTree + HeadTracker under GeostRule(n): µs per insert.
double replay_geost(const themis::ledger::BlockTree& tree, std::size_t n) {
  std::vector<themis::ledger::BlockPtr> blocks;
  std::vector<themis::ledger::BlockHash> stack{tree.genesis_hash()};
  while (!stack.empty()) {
    const auto id = stack.back();
    stack.pop_back();
    for (const auto& child : tree.children(id)) {
      blocks.push_back(tree.block(child));
      stack.push_back(child);
    }
  }
  std::sort(blocks.begin(), blocks.end(), [&tree](const auto& a, const auto& b) {
    return tree.receipt_seq(a->id()) < tree.receipt_seq(b->id());
  });
  const themis::core::GeostRule rule(n);
  themis::ledger::BlockTree replay(tree.block(tree.genesis_hash()));
  themis::consensus::HeadTracker tracker;
  tracker.reset(replay, rule, replay.genesis_hash(), 64);
  const auto t0 = Clock::now();
  for (const auto& block : blocks) {
    replay.insert(block);
    tracker.on_insert(replay, rule, block->id());
  }
  const double us = s_between(t0, Clock::now()) * 1e6;
  return blocks.empty() ? 0.0 : us / static_cast<double>(blocks.size());
}

Rep run_rep(std::uint64_t seed, bool profiled, Tracer& tracer) {
  Rep rep;
  rep.profiled = profiled;
  themis::obs::Observability obs;
  obs.tracer.enable(false);
  themis::sim::PoxConfig config = sim_config(seed);
  if (profiled) config.obs = &obs;

  const auto t_setup = Clock::now();
  auto exp = std::make_unique<themis::sim::PoxExperiment>(config);
  rep.setup_s = s_between(t_setup, Clock::now());

  const double cpu0 = thread_cpu_s();
  const std::uint64_t rep_span = tracer.next_id();
  const std::int64_t rep_start = Tracer::now_ns();
  const auto t_run = Clock::now();
  auto t_slice = t_run;
  for (std::uint64_t h = 1; h <= kHeight; ++h) {
    const std::int64_t slice_start = Tracer::now_ns();
    exp->run_to_height(h);
    const auto now = Clock::now();
    rep.slice_ms.push_back(ms_between(t_slice, now));
    t_slice = now;
    tracer.record({tracer.next_id(), rep_span, "sim.slice", slice_start, Tracer::now_ns()});
  }
  rep.wall_s = s_between(t_run, t_slice);
  tracer.record({rep_span, 0, profiled ? "sim.rep.profiled" : "sim.rep", rep_start,
                 Tracer::now_ns()});
  rep.cpu_s = thread_cpu_s() - cpu0;

  const auto producers = exp->main_chain_producers();
  themis::Writer raw;
  for (const auto p : producers) raw.u32(p);
  const themis::metrics::ForkStats forks = exp->fork_stats();
  rep.digest.events = exp->simulation().events_processed();
  rep.digest.tps = exp->tps();
  rep.digest.blocks = forks.total_blocks;
  rep.digest.stale = forks.stale_blocks;
  rep.digest.producers = themis::to_hex(themis::crypto::sha256d(raw.buffer()));
  rep.committed_txs = producers.size() * kTxsPerBlock;

  if (profiled) {
    const auto& scopes = obs.profiler.scopes();
    const auto ns = [&scopes](const char* name) {
      const auto it = scopes.find(name);
      return it == scopes.end() ? 0.0 : it->second.ns_per_call();
    };
    rep.accept_ns = ns("consensus.accept_block");
    rep.update_head_ns = ns("consensus.update_head");
    rep.mine_ns = ns("consensus.mine_block");
    rep.queue_peak = exp->simulation().queue_stats().peak_live;
    rep.gossip_messages = exp->network().messages_delivered();
    rep.redundant_push_ratio = exp->network().redundant_push_ratio();
    rep.geost_insert_us = replay_geost(exp->node(0).tree(), kNodes);
    const auto t_eq = Clock::now();
    const auto sigma_f = exp->per_epoch_frequency_variance();
    const auto sigma_p = exp->per_epoch_probability_variance();
    const double whole =
        themis::metrics::frequency_variance_of(producers, kNodes);
    rep.equality_ms = ms_between(t_eq, Clock::now());
    if (sigma_f.size() != sigma_p.size() || whole < 0) rep.equality_ms = -1;
  }
  return rep;
}

}  // namespace

/// Runs `seeds` derived seeds in rounds until `opt.seconds` is used up
/// (at least `min_rounds`); with opt.trace the odd rounds are profiled and
/// the per-layer figures are filled in.
RunResult simulate(const Options& opt, std::size_t seeds, std::size_t min_rounds) {
  RunResult r;
  r.params["nodes"] = std::to_string(kNodes);
  r.params["height"] = std::to_string(kHeight);
  r.params["seeds"] = std::to_string(sub_seed(opt.seed, 0)) + ", " +
                      std::to_string(sub_seed(opt.seed, 1)) + ", " +
                      std::to_string(sub_seed(opt.seed, 2));
  r.params["shape"] =
      "Themis/GEOST, uniform power, beta=8, I0=4s, 4096 tx/block, "
      "20 Mbps / 100 ms links, fanout 8";

  // Set-up is short (~50 ms) and noisy: several constructions are timed on
  // their own and the median is reported.
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    themis::sim::PoxExperiment exp(sim_config(opt.seed));
    setup.push_back(s_between(t0, Clock::now()));
  }

  Tracer tracer(opt.trace);
  std::vector<std::vector<Rep>> by_seed(seeds);
  const auto t_start = Clock::now();
  for (std::size_t round = 0;
       round < kMaxRounds &&
       (round < min_rounds || s_between(t_start, Clock::now()) < opt.seconds);
       ++round) {
    const bool profiled = opt.trace && round % 2 == 1;
    for (std::size_t k = 0; k < seeds; ++k) {
      by_seed[k].push_back(run_rep(sub_seed(opt.seed, k), profiled, tracer));
      std::cerr << "[perfbench] sim seed " << sub_seed(opt.seed, k) << " round "
                << round << ": " << by_seed[k].back().wall_s << " s wall, "
                << to_string(by_seed[k].back().digest) << "\n";
    }
  }

  std::vector<double> cpu_per_tx, tps, plain_wall, profiled_wall, slices;
  for (std::size_t k = 0; k < seeds; ++k) {
    std::vector<SimDigest> digests;
    for (const Rep& rep : by_seed[k]) {
      r.attempted += 1;
      digests.push_back(rep.digest);
      if (rep.equality_ms < 0) r.violate("equality metrics inconsistent");
      if (rep.profiled) {
        profiled_wall.push_back(rep.wall_s);
        continue;
      }
      plain_wall.push_back(rep.wall_s);
      const auto txs = static_cast<double>(std::max<std::uint64_t>(1, rep.committed_txs));
      cpu_per_tx.push_back(rep.cpu_s * 1e6 / txs);
      tps.push_back(txs / rep.wall_s);
    }
    std::optional<SimDigest> recorded;
    if (opt.seed == 1 && k == 0) recorded = kRecordedSeed1;
    for (auto& v : check_sim_repeats(digests, recorded)) r.violate(std::move(v));
    // Every repetition of a seed does the same work at each height, so each
    // height's wall time is the median over its unprofiled repetitions: a
    // host stall in one repetition does not reach the percentiles.
    for (std::uint64_t h = 0; h < kHeight; ++h) {
      std::vector<double> at_height;
      for (const Rep& rep : by_seed[k]) {
        if (!rep.profiled) at_height.push_back(rep.slice_ms[h]);
      }
      slices.push_back(median(at_height));
    }
  }

  const auto n = static_cast<std::uint64_t>(plain_wall.size());
  r.set(r.e2e, "confirmed_tps", median(tps), "tx/s", n);
  r.set(r.e2e, "confirm_p50_ms", quantile(slices, 0.5), "ms", slices.size());
  r.set(r.e2e, "confirm_p90_ms", quantile(slices, 0.9), "ms", slices.size());
  r.set(r.e2e, "cpu_us_per_tx", median(cpu_per_tx), "us", n);
  r.set(r.e2e, "setup_s", median(setup), "s", setup.size());
  r.set(r.e2e, "peak_rss_mb", peak_rss_mb(), "MB", 1);
  r.set(r.extra, "sim_wall_s", median(plain_wall), "s", plain_wall.size());

  if (opt.trace) {
    const Rep* prof = nullptr;
    double events = 0, wall = 0;
    for (const auto& reps : by_seed) {
      for (const Rep& rep : reps) {
        if (rep.profiled) {
          prof = &rep;
          continue;
        }
        events += static_cast<double>(rep.digest.events);
        wall += rep.wall_s;
      }
    }
    r.set(r.layer, "net.events", events / static_cast<double>(plain_wall.size()),
          "count", plain_wall.size());
    r.set(r.layer, "net.events_per_s", events / wall, "1/s", plain_wall.size());
    r.set(r.layer, "sim.slice_wall_p50_ms", quantile(slices, 0.5), "ms",
          slices.size());
    r.set(r.layer, "sim.slice_wall_max_ms", quantile(slices, 1.0), "ms",
          slices.size());
    r.set(r.layer, "sim.wall_s", median(plain_wall), "s", plain_wall.size());
    if (prof != nullptr) {
      r.set(r.layer, "net.queue_peak_live", static_cast<double>(prof->queue_peak),
            "count", 1);
      r.set(r.layer, "net.gossip_messages",
            static_cast<double>(prof->gossip_messages), "count", 1);
      r.set(r.layer, "net.redundant_push_ratio", prof->redundant_push_ratio,
            "ratio", 1);
      r.set(r.layer, "consensus.sim_accept_ns", prof->accept_ns, "ns", 1);
      r.set(r.layer, "consensus.sim_update_head_ns", prof->update_head_ns, "ns",
            1);
      r.set(r.layer, "consensus.sim_mine_ns", prof->mine_ns, "ns", 1);
      r.set(r.layer, "core.geost_insert_us", prof->geost_insert_us, "us", 1);
      r.set(r.layer, "metrics.equality_ms", prof->equality_ms, "ms", 1);
      const double traced = median(profiled_wall);
      const double plain = median(plain_wall);
      r.set(r.layer, "trace.overhead_pct", (traced - plain) / plain * 100.0,
            "%", profiled_wall.size());
    }
    const auto span_file = opt.workdir / ("spans-sim-n2000-" + std::to_string(opt.seed) + ".jsonl");
    if (!tracer.write_jsonl(span_file)) r.violate("cannot write " + span_file.string());
    r.params["span_file"] = span_file.filename().string();
  }
  return r;
}

RunResult run_sim(const Options& opt) {
  return simulate(opt, kSubSeeds, kMinRounds);
}

void add_sim_layers(const Options& opt, RunResult& r) {
  Options one = opt;
  one.seconds = 0;  // one plain and one profiled repetition of one seed
  one.trace = true;
  const RunResult sim = simulate(one, 1, 2);
  for (const auto& [name, metric] : sim.layer) {
    if (name != "trace.overhead_pct") r.layer[name] = metric;
  }
  for (const auto& v : sim.violations) r.violate("simulator: " + v);
  r.attempted += sim.attempted;
  r.params["sim_layers"] = "n=" + std::to_string(kNodes) + ", seed " +
                           std::to_string(opt.seed) + ", height " +
                           std::to_string(kHeight) + ", plain + profiled";
}

}  // namespace perfbench
