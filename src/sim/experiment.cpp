#include "sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/check.h"
#include "metrics/equality.h"
#include "sim/power_dist.h"

namespace themis::sim {

using consensus::NodeConfig;
using consensus::PowNode;
using core::Algorithm;
using ledger::NodeId;

namespace {

/// End-of-run totals shared by the PoX and PBFT runs: gossip traffic and the
/// events the simulation processed.
void record_run_totals(obs::live::Registry& r,
                       const net::GossipNetwork& network,
                       const net::Simulation& sim) {
  r.counter("themis_sim_gossip_deliveries_total",
            "Gossip messages delivered to a node.")
      .inc(network.messages_delivered());
  r.counter("themis_sim_gossip_duplicate_drops_total",
            "Flood deliveries dropped by the receiver's dedup.")
      .inc(network.duplicates_dropped());
  r.counter("themis_sim_gossip_bytes_total", "Bytes put on simulated links.")
      .inc(network.links().total_bytes_sent());
  r.counter("themis_sim_gossip_transfers_total",
            "Transfers serialized onto simulated links.")
      .inc(network.links().total_transfers());
  r.counter("themis_sim_events_processed_total",
            "Events the simulation executed.")
      .inc(sim.events_processed());
}

}  // namespace

std::uint64_t PoxExperiment::delta_for(const PoxConfig& config) {
  expects(config.beta > 0, "beta must be positive");
  const auto delta = static_cast<std::uint64_t>(
      std::llround(config.beta * static_cast<double>(config.n_nodes)));
  return std::max<std::uint64_t>(delta, 1);
}

PoxExperiment::PoxExperiment(PoxConfig config) : config_(std::move(config)) {
  expects(config_.n_nodes >= 2, "need at least two nodes");
  expects(config_.algorithm != Algorithm::kPbft,
          "use run_pbft() for the PBFT baseline");
  expects(config_.beta > 0, "beta must be positive");
  expects(config_.vulnerable_ratio >= 0.0 && config_.vulnerable_ratio <= 1.0,
          "vulnerable ratio must lie in [0, 1]");

  delta_ = delta_for(config_);

  // Attach observability before any component exists: nodes and the network
  // cache the pointer at construction.
  if (config_.obs != nullptr) {
    sim_.set_obs(config_.obs);
    config_.obs->tracer.emit(
        sim_.now(), "run_meta",
        {obs::Field::str("algorithm", core::to_string(config_.algorithm)),
         obs::Field::u64("n_nodes", config_.n_nodes),
         obs::Field::u64("delta", delta_),
         obs::Field::u64("seed", config_.seed),
         obs::Field::u64("fanout", config_.fanout),
         obs::Field::f64("expected_interval_s", config_.expected_interval_s)});
  }

  hash_rates_ = config_.hash_rates.empty()
                    ? btc_jan2022_power(config_.n_nodes, config_.h0)
                    : config_.hash_rates;
  expects(hash_rates_.size() == config_.n_nodes,
          "hash rate vector must have one entry per node");

  network_ = std::make_unique<net::GossipNetwork>(
      sim_, config_.link, config_.n_nodes, config_.fanout,
      /*topology_seed=*/config_.seed * 0x9e37u + 1);

  const double total_power =
      std::accumulate(hash_rates_.begin(), hash_rates_.end(), 0.0);

  core::AdaptiveConfig adaptive;
  adaptive.n_nodes = config_.n_nodes;
  adaptive.delta = delta_;
  adaptive.expected_interval_s = config_.expected_interval_s;
  adaptive.h0 = config_.h0;
  adaptive.enable_retarget = config_.enable_retarget;
  adaptive.enforce_multiple_floor = config_.enforce_multiple_floor;
  if (config_.calibrated_start) {
    adaptive.initial_base_difficulty =
        config_.expected_interval_s * total_power;
  }

  nodes_.reserve(config_.n_nodes);
  Rng seeder(config_.seed);
  for (std::size_t i = 0; i < config_.n_nodes; ++i) {
    NodeConfig nc;
    nc.id = static_cast<NodeId>(i);
    nc.n_nodes = config_.n_nodes;
    nc.hash_rate = hash_rates_[i];
    nc.txs_per_block = config_.txs_per_block;
    nc.finality_depth = config_.finality_depth;
    nc.announce_bytes_per_tx = config_.announce_bytes_per_tx;
    nc.checkpoint_interval = config_.checkpoint_interval;
    nc.rng_seed = seeder.next_u64();

    switch (config_.algorithm) {
      case Algorithm::kThemis:
        nodes_.push_back(core::make_themis_node(sim_, *network_, nc, adaptive));
        break;
      case Algorithm::kThemisLite:
        nodes_.push_back(core::make_themis_lite_node(sim_, *network_, nc, adaptive));
        break;
      case Algorithm::kPowH: {
        // One network-wide difficulty (Fig. 1a: same difficulty, frequency
        // follows power), calibrated so the expected interval is I_0 and
        // retargeted per epoch like Bitcoin.
        core::AdaptiveConfig powh = adaptive;
        powh.initial_base_difficulty =
            config_.expected_interval_s * total_power;
        nodes_.push_back(core::make_powh_node(sim_, *network_, nc, powh));
        break;
      }
      case Algorithm::kPbft:
        break;  // unreachable (checked above)
    }
  }

  if (config_.algorithm != Algorithm::kPowH) {
    observer_policy_ = std::make_unique<core::AdaptiveDifficulty>(adaptive);
  }

  // §VII-A: vulnerable nodes are a fixed fraction of the consensus set whose
  // produced blocks never reach the main chain.  Pick them pseudo-randomly so
  // both pool-scale and independent nodes can be hit.
  const std::size_t n_vulnerable = static_cast<std::size_t>(
      std::llround(config_.vulnerable_ratio * static_cast<double>(config_.n_nodes)));
  std::vector<std::size_t> order(config_.n_nodes);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffler(config_.seed ^ 0xabcdef12345ull);
  shuffler.shuffle(order);
  for (std::size_t i = 0; i < n_vulnerable; ++i) {
    nodes_[order[i]]->set_producer_suppressed(true);
  }

  for (auto& node : nodes_) node->start();
}

void PoxExperiment::run_to_height(std::uint64_t height, SimTime max_sim_time) {
  while (reference().head_height() < height && sim_.now() < max_sim_time) {
    if (!sim_.step()) break;
  }
}

std::vector<NodeId> PoxExperiment::main_chain_producers() const {
  const auto chain = reference().main_chain();
  std::vector<NodeId> producers;
  producers.reserve(chain.size());
  const ledger::BlockTree& tree = reference().tree();
  for (std::size_t i = 1; i < chain.size(); ++i) {  // skip genesis
    producers.push_back(tree.block(chain[i])->producer());
  }
  return producers;
}

std::vector<double> PoxExperiment::per_epoch_frequency_variance() const {
  const auto producers = main_chain_producers();
  return metrics::per_epoch_frequency_variance(producers, delta_,
                                               config_.n_nodes);
}

std::vector<double> PoxExperiment::per_epoch_probability_variance() const {
  const auto chain = reference().main_chain();
  const std::uint64_t full_epochs = (chain.size() - 1) / delta_;
  std::vector<double> out;
  out.reserve(full_epochs);

  if (config_.algorithm == Algorithm::kPowH) {
    // Fixed difficulty: p_i is the plain power share in every round (Eq. 3
    // with m_i = 1).
    const double v = metrics::probability_variance_from_power(hash_rates_);
    out.assign(full_epochs, v);
    return out;
  }

  // Themis / Themis-Lite: effective power in epoch e is h_i / m_i^e, with
  // the multiples reconstructed from the boundary block the epoch follows.
  const ledger::BlockTree& tree = reference().tree();
  for (std::uint64_t e = 0; e < full_epochs; ++e) {
    const ledger::BlockHash& boundary = chain[e * delta_];  // height e·Δ
    const auto& table = observer_policy_->table_for(tree, boundary);
    std::vector<double> effective(config_.n_nodes);
    for (std::size_t i = 0; i < config_.n_nodes; ++i) {
      effective[i] = hash_rates_[i] / table.multiples[i];
    }
    out.push_back(metrics::probability_variance_from_power(effective));
  }
  return out;
}

double PoxExperiment::tps() const {
  const double seconds = sim_.now().to_seconds();
  if (seconds <= 0) return 0.0;
  const double blocks =
      static_cast<double>(reference().head_height());  // non-genesis blocks
  return blocks * static_cast<double>(config_.txs_per_block) / seconds;
}

double PoxExperiment::tps_since(std::uint64_t from_height) const {
  const auto chain = reference().main_chain();
  if (from_height + 1 >= chain.size()) return 0.0;
  const ledger::BlockTree& tree = reference().tree();
  const double span_s =
      static_cast<double>(
          tree.block(chain.back())->header().timestamp_nanos -
          tree.block(chain[from_height])->header().timestamp_nanos) /
      1e9;
  if (span_s <= 0) return 0.0;
  const double blocks = static_cast<double>(chain.size() - 1 - from_height);
  return blocks * static_cast<double>(config_.txs_per_block) / span_s;
}

metrics::ForkStats PoxExperiment::fork_stats(std::uint64_t from_height) const {
  return metrics::analyze_forks(reference().tree(), reference().head(),
                                from_height);
}

void PoxExperiment::emit_trace_summary() {
  obs::Observability* o = config_.obs;
  if (o == nullptr) return;

  const auto chain = reference().main_chain();
  const ledger::BlockTree& tree = reference().tree();

  // Final main chain (node 0's view): one record per non-genesis block,
  // keyed by the block's own timestamp.  This snapshot is what lets
  // `themis-trace` recompute per-epoch sigma_f^2 exactly.
  obs::live::Registry& r = o->registry;
  obs::live::Histogram& intervals = r.histogram(
      "themis_sim_block_interval_seconds",
      "Timestamp gaps between consecutive main-chain blocks.");
  std::int64_t prev_ts = 0;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const ledger::Block& block = *tree.block(chain[i]);
    const std::int64_t ts = block.header().timestamp_nanos;
    if (o->tracer.enabled()) {
      o->tracer.emit(SimTime::nanos(ts), "chain_block",
                     {obs::Field::u64("height", block.header().height),
                      obs::Field::u64("producer", block.header().producer),
                      obs::Field::u64("epoch", block.header().epoch),
                      obs::Field::str("hash", short_hex(chain[i]))});
    }
    if (i > 1) {
      intervals.record_ns(
          static_cast<std::uint64_t>(std::max<std::int64_t>(ts - prev_ts, 0)));
    }
    prev_ts = ts;
  }

  // Per-epoch difficulty snapshots and retarget records (adaptive variants
  // only — PoW-H has no observer policy here).
  if (observer_policy_ != nullptr && !chain.empty()) {
    std::vector<double> base_per_epoch;
    std::vector<double> max_multiple_per_epoch;
    const std::uint64_t full_epochs = (chain.size() - 1) / delta_;
    double prev_base = 0.0;
    for (std::uint64_t e = 0; e <= full_epochs; ++e) {
      const ledger::BlockHash& boundary = chain[e * delta_];
      const auto& table = observer_policy_->table_for(tree, boundary);
      double max_m = 1.0;
      double sum_m = 0.0;
      for (const double m : table.multiples) {
        max_m = std::max(max_m, m);
        sum_m += m;
      }
      const double mean_m =
          table.multiples.empty()
              ? 1.0
              : sum_m / static_cast<double>(table.multiples.size());
      base_per_epoch.push_back(table.base_difficulty);
      max_multiple_per_epoch.push_back(max_m);
      if (e > 0 && o->tracer.enabled()) {
        o->tracer.emit(
            SimTime::nanos(tree.block(boundary)->header().timestamp_nanos),
            "retarget",
            {obs::Field::u64("epoch", e),
             obs::Field::f64("old_base", prev_base),
             obs::Field::f64("new_base", table.base_difficulty),
             obs::Field::f64("mean_multiple", mean_m),
             obs::Field::f64("max_multiple", max_m)});
      }
      prev_base = table.base_difficulty;
    }
    // One family at a time, so each family's samples stay contiguous.
    const auto per_epoch = [&r](std::string_view family, std::string_view help,
                                const std::vector<double>& values) {
      for (std::size_t e = 0; e < values.size(); ++e) {
        r.gauge_fn(std::string(family) + "{epoch=\"" + std::to_string(e) +
                       "\"}",
                   help, [v = values[e]] { return v; });
      }
    };
    per_epoch("themis_sim_base_difficulty", "D_base of the epoch (Eq. 7).",
              base_per_epoch);
    per_epoch("themis_sim_max_multiple",
              "Largest producer multiple m_i of the epoch (Eq. 6).",
              max_multiple_per_epoch);
  }

  // Run-wide totals: gossip traffic, fork statistics and the event queue.
  record_run_totals(r, *network_, sim_);
  const metrics::ForkStats forks = fork_stats();
  r.counter("themis_sim_fork_blocks_total",
            "Non-genesis blocks in the reference node's tree.")
      .inc(forks.total_blocks);
  r.counter("themis_sim_fork_main_chain_blocks_total",
            "Non-genesis blocks on the reference node's main chain.")
      .inc(forks.main_chain_blocks);
  r.counter("themis_sim_fork_stale_blocks_total",
            "Blocks off the reference node's main chain.")
      .inc(forks.stale_blocks);
  r.counter("themis_sim_fork_runs_total", "Runs of consecutive forked heights.")
      .inc(forks.fork_count);
  r.gauge("themis_sim_fork_longest_run_blocks",
          "Longest run of consecutive forked heights.")
      .set(static_cast<std::int64_t>(forks.longest_fork_duration));
  const net::CalendarQueue::Stats qs = sim_.queue_stats();
  r.gauge("themis_sim_queue_peak_pending", "Most events pending at once.")
      .set(static_cast<std::int64_t>(qs.peak_live));
  r.gauge("themis_sim_queue_buckets", "Calendar-queue buckets at run end.")
      .set(static_cast<std::int64_t>(qs.bucket_count));
  r.gauge("themis_sim_queue_arena_slots", "Event-arena slots at run end.")
      .set(static_cast<std::int64_t>(qs.arena_slots));
  r.counter("themis_sim_queue_rebuilds_total", "Calendar-queue resizes.")
      .inc(qs.rebuilds);
  r.counter("themis_sim_queue_cancelled_total", "Events cancelled.")
      .inc(qs.cancelled);
  r.counter("themis_sim_queue_direct_searches_total",
            "Sparse-queue cursor resets (direct searches).")
      .inc(qs.direct_searches);
}

PbftResult run_pbft(const PbftScenario& scenario) {
  expects(scenario.n_nodes >= 4, "PBFT needs at least four replicas");
  net::Simulation sim;
  if (scenario.obs != nullptr) {
    sim.set_obs(scenario.obs);
    scenario.obs->tracer.emit(
        sim.now(), "run_meta",
        {obs::Field::str("algorithm", "pbft"),
         obs::Field::u64("n_nodes", scenario.n_nodes),
         obs::Field::u64("seed", scenario.seed)});
  }
  // PBFT uses direct point-to-point sends; the overlay fanout is irrelevant.
  net::GossipNetwork network(sim, scenario.link, scenario.n_nodes,
                             /*fanout=*/2, scenario.seed * 31 + 7);
  pbft::PbftConfig config = scenario.pbft;
  config.n_nodes = scenario.n_nodes;
  pbft::PbftCluster cluster(sim, network, config);

  // Vulnerable replicas are a random subset (§VII-A): a contiguous block of
  // suppressed leaders would escalate the view-change backoff unrealistically.
  const std::size_t n_vulnerable = static_cast<std::size_t>(std::llround(
      scenario.vulnerable_ratio * static_cast<double>(scenario.n_nodes)));
  std::vector<std::size_t> order(scenario.n_nodes);
  std::iota(order.begin(), order.end(), 0);
  Rng shuffler(scenario.seed ^ 0x5eed5eedull);
  shuffler.shuffle(order);
  for (std::size_t i = 0; i < n_vulnerable; ++i) {
    cluster.replica(order[i]).set_suppressed(true);
  }

  cluster.start();
  while (sim.now() < scenario.duration) {
    if (scenario.max_blocks > 0 &&
        cluster.max_committed_seq() >= scenario.max_blocks) {
      break;
    }
    if (!sim.step()) break;
  }

  if (scenario.obs != nullptr) {
    obs::live::Registry& r = scenario.obs->registry;
    record_run_totals(r, network, sim);
    r.counter("themis_sim_pbft_view_changes_total",
              "PBFT view changes, summed over replicas.")
        .inc(cluster.total_view_changes());
  }

  PbftResult result;
  result.elapsed = std::min(sim.now(), scenario.duration);
  result.committed_blocks = cluster.max_committed_seq();
  result.committed_txs = cluster.max_committed_txs();
  result.view_changes = cluster.total_view_changes();
  const double seconds = (scenario.max_blocks > 0 ? result.elapsed
                                                  : scenario.duration)
                             .to_seconds();
  result.tps = seconds > 0
                   ? static_cast<double>(result.committed_txs) / seconds
                   : 0.0;

  // Producer log from the replica that committed the most.
  std::size_t best = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    if (cluster.replica(i).committed_seq() >
        cluster.replica(best).committed_seq()) {
      best = i;
    }
  }
  for (const auto& [seq, producer] :
       cluster.replica(best).committed_producers()) {
    result.producers.push_back(producer);
  }
  return result;
}

}  // namespace themis::sim
