// Experiment harness (§VII).
//
// PoxExperiment wires n consensus nodes (Themis, Themis-Lite or PoW-H) onto
// one simulated gossip network, runs the consensus to a target main-chain
// height, and extracts exactly the quantities the paper's figures plot:
// per-epoch σ_f² (Fig. 4, Fig. 9), per-epoch σ_p² (Fig. 5), TPS (Fig. 6-7)
// and fork statistics (Fig. 8).  run_pbft() does the same for the PBFT
// baseline.
#pragma once

#include <memory>
#include <vector>

#include "consensus/node.h"
#include "core/themis_node.h"
#include "metrics/fork_stats.h"
#include "net/gossip.h"
#include "net/simulation.h"
#include "obs/observability.h"
#include "pbft/cluster.h"

namespace themis::sim {

struct PoxConfig {
  core::Algorithm algorithm = core::Algorithm::kThemis;
  std::size_t n_nodes = 100;
  /// Per-node hash rates h_i; empty means btc_jan2022_power(n, h0) (§VII-A).
  std::vector<double> hash_rates;
  double h0 = 1000.0;               ///< H_0, hashes/second
  double beta = 8.0;                ///< Δ = β·n (§VII-D recommends β in [7,11])
  double expected_interval_s = 4.0; ///< I_0
  std::uint32_t txs_per_block = 4096;
  std::size_t fanout = 8;
  net::LinkConfig link{};           ///< 20 Mbps / 100 ms defaults (§VII-A)
  /// Compact block relay (ordering over pre-disseminated transactions).
  double announce_bytes_per_tx = 32.0;
  std::uint64_t finality_depth = 64;
  /// Checkpoint finality every k heights (0 = off; NodeConfig has the same
  /// knob): every node runs the daemon's finality code on the gossip mesh.
  std::uint64_t checkpoint_interval = 0;
  /// Fraction of nodes whose produced blocks are suppressed (§VII-A attacks).
  double vulnerable_ratio = 0.0;
  std::uint64_t seed = 1;
  // Adaptive-mechanism ablation switches (Themis / Themis-Lite only).
  bool enable_retarget = true;
  bool enforce_multiple_floor = true;
  /// Calibrate D_base^0 to I_0 * (total initial hash rate) — a consortium
  /// launch-time calibration.  Eq. 7's I_0·n·H_0 targets the *converged*
  /// effective power; using it against the raw Fig. 3 distribution makes
  /// epoch 0 produce blocks far faster than the network can propagate them
  /// (see DESIGN.md).  Disable to study that bootstrap regime.
  bool calibrated_start = true;
  /// Non-owning observability bundle for this run (attached to the
  /// simulation before any component is built).  Null — the default — means
  /// no tracing, no counters, no profiling; the run is bit-identical either
  /// way.
  obs::Observability* obs = nullptr;
};

class PoxExperiment {
 public:
  explicit PoxExperiment(PoxConfig config);

  /// The epoch length Δ = round(β·n) this config will run with (what the
  /// constructor computes) — lets sweep drivers size height budgets without
  /// building the experiment first.
  static std::uint64_t delta_for(const PoxConfig& config);

  /// Run until the reference node's main chain reaches `height` (or the
  /// simulated-time cap is hit).  May be called repeatedly to extend a run.
  void run_to_height(std::uint64_t height,
                     SimTime max_sim_time = SimTime::seconds(1e7));

  const consensus::PowNode& node(std::size_t i) const { return *nodes_[i]; }
  consensus::PowNode& node(std::size_t i) { return *nodes_[i]; }
  /// Metrics are read from node 0's view of the chain.
  const consensus::PowNode& reference() const { return *nodes_[0]; }
  std::size_t size() const { return nodes_.size(); }

  const PoxConfig& config() const { return config_; }
  std::uint64_t delta() const { return delta_; }
  const std::vector<double>& hash_rates() const { return hash_rates_; }
  SimTime elapsed() const { return sim_.now(); }
  net::Simulation& simulation() { return sim_; }
  net::GossipNetwork& network() { return *network_; }

  /// Producer of every non-genesis main-chain block, in height order.
  std::vector<ledger::NodeId> main_chain_producers() const;

  /// σ_f² per full epoch (Eq. 1 / Fig. 4).
  std::vector<double> per_epoch_frequency_variance() const;

  /// σ_p² per full epoch (Eq. 2 / Fig. 5): probabilities derived from the
  /// true hash rates and the difficulty multiples in force that epoch.
  std::vector<double> per_epoch_probability_variance() const;

  /// Committed transactions per simulated second (txs_per_block * main-chain
  /// growth / elapsed).
  double tps() const;

  /// TPS over the main-chain suffix above `from_height` (block timestamps
  /// define the span) — the converged-regime throughput.
  double tps_since(std::uint64_t from_height) const;

  /// Fork statistics from `from_height` onward (1 = the whole run; pass a
  /// later height to measure only the converged regime).
  metrics::ForkStats fork_stats(std::uint64_t from_height = 1) const;

  /// Fold the run's end state into the attached Observability bundle (no-op
  /// without one): a `chain_block` trace record per final main-chain block, a
  /// `retarget` record per epoch boundary (old/new D_base and the multiple
  /// spread; Themis/Lite only), and in the registry the block-interval
  /// histogram, per-epoch D_base and largest-multiple gauges, fork, gossip
  /// and event-queue totals.  Call once, after the run.
  void emit_trace_summary();

 private:
  PoxConfig config_;
  std::uint64_t delta_;
  std::vector<double> hash_rates_;
  net::Simulation sim_;
  std::unique_ptr<net::GossipNetwork> network_;
  std::vector<std::unique_ptr<consensus::PowNode>> nodes_;
  /// Observer policy for reconstructing per-epoch multiples (Themis/Lite).
  std::unique_ptr<core::AdaptiveDifficulty> observer_policy_;
};

struct PbftScenario {
  std::size_t n_nodes = 100;
  pbft::PbftConfig pbft{};  ///< n_nodes is overwritten from this struct
  net::LinkConfig link{};
  double vulnerable_ratio = 0.0;
  /// Non-owning observability bundle (see PoxConfig::obs).
  obs::Observability* obs = nullptr;
  SimTime duration = SimTime::seconds(600);
  /// Stop early once this many blocks commit (0 = run the full duration, and
  /// TPS is measured over the full duration either way).
  std::uint64_t max_blocks = 0;
  std::uint64_t seed = 1;
};

struct PbftResult {
  double tps = 0.0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t view_changes = 0;
  SimTime elapsed;
  /// Leaders of the committed sequences, in order (for equality metrics).
  std::vector<ledger::NodeId> producers;
};

PbftResult run_pbft(const PbftScenario& scenario);

}  // namespace themis::sim
