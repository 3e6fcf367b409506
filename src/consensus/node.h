// A proof-of-X consensus node on the simulated network.
//
// This is the §III round structure: sample a block-finding time from the
// node's current difficulty (node election), broadcast found blocks, validate
// and insert received blocks, and re-run the fork-choice rule (main chain
// consensus) whenever the tree changes.  The node is generic over both knobs
// the paper varies:
//
//   * DifficultyPolicy — FixedDifficulty gives the PoW-H baseline;
//     core::AdaptiveDifficulty gives Themis / Themis-Lite (Eq. 3-7).
//   * ForkChoiceRule — GhostRule gives PoW-H / Themis-Lite;
//     core::GeostRule gives Themis (Algorithm 1).
//
// The round itself — validate, insert with unblocked orphans, re-run fork
// choice, checkpoint finality — is ChainCore, the same code the daemon runs;
// PowNode is its simulator adapter: the mining timer, gossip, and (when
// checkpoint_interval > 0) checkpoint votes as kCkptVote floods.
//
// Mining restarts are statistically sound because exponential waiting times
// are memoryless: cancelling and resampling on a head change is equivalent to
// letting the old draw continue.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "consensus/chain_core.h"  // ChainCore, KeyRegistry
#include "consensus/miner.h"
#include "net/gossip.h"
#include "obs/observability.h"

namespace themis::consensus {

struct NodeConfig {
  ledger::NodeId id = 0;
  std::size_t n_nodes = 0;
  double hash_rate = 1.0;          ///< h_i (hashes/second)
  std::uint32_t txs_per_block = 0; ///< declared tx count of produced blocks
  /// Sign produced headers and verify received ones.  Costs a few point
  /// multiplications per block; large sweeps turn it off (§VI-C shows the
  /// signature adds only ~constant bytes/CPU per block either way).
  bool use_signatures = false;
  /// The fork-choice walk starts this many blocks behind the head (blocks
  /// buried deeper are final for this node).  Must comfortably exceed the
  /// observed fork duration (2-3 blocks in the paper, §VII-D).
  std::uint64_t finality_depth = 64;
  /// When >= 0, block announcements are relayed compactly (ordering over
  /// pre-disseminated transactions, Bitcoin compact-block style) at
  /// ~header + this-many bytes per transaction; when < 0 the full block body
  /// travels on every relay hop.
  double announce_bytes_per_tx = -1.0;
  /// Checkpoint finality every k heights (0 = off): the node votes through
  /// ChainCore and floods its votes as kCkptVote messages of the real
  /// 120-byte encoding; certified checkpoints constrain fork choice.
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t rng_seed = 1;
};

class PowNode {
 public:
  PowNode(net::Simulation& sim, net::GossipNetwork& network, NodeConfig config,
          std::shared_ptr<ForkChoiceRule> rule,
          std::shared_ptr<DifficultyPolicy> policy,
          std::shared_ptr<const KeyRegistry> registry = nullptr);

  /// Install the gossip handler and schedule the first mining attempt.
  void start();
  /// Cancel any pending mining attempt.
  void stop();

  // --- attack hooks (§VII-A) -----------------------------------------------
  /// A "vulnerable" node: it keeps mining, but every block it finds is
  /// suppressed before broadcast (single-point attack on the elected
  /// producer).
  void set_producer_suppressed(bool suppressed) { suppressed_ = suppressed; }
  bool producer_suppressed() const { return suppressed_; }

  // --- observers ------------------------------------------------------------
  /// The chain state machine: tree, head tracker, checkpoint tracker.
  const ChainCore& core() const { return core_; }
  const ledger::BlockTree& tree() const { return core_.tree(); }
  const ledger::BlockHash& head() const { return core_.head(); }
  /// Fork-choice start: trails the head by at most finality_depth.
  const ledger::BlockHash& anchor() const { return core_.tracker().anchor(); }
  std::vector<ledger::BlockHash> main_chain() const { return tree().chain_to(head()); }
  std::uint64_t head_height() const { return core_.head_height(); }
  /// Highest checkpoint hard-finalized at this node (0 = none).
  std::uint64_t finalized_height() const { return core_.finalized_height(); }
  const NodeConfig& config() const { return config_; }

  std::uint64_t blocks_produced() const { return blocks_produced_; }
  std::uint64_t blocks_suppressed() const { return blocks_suppressed_; }
  std::uint64_t blocks_rejected() const { return blocks_rejected_; }
  std::uint64_t reorgs() const { return reorgs_; }
  /// Checkpoint votes this node cast and flooded.
  std::uint64_t votes_sent() const { return votes_sent_; }

  /// Invoked after every block or vote that moved the head or hard-finalized
  /// a checkpoint, with what the call changed (metrics hook).
  using ChainListener =
      std::function<void(const PowNode&, const ChainCore::Effects&)>;
  void set_chain_listener(ChainListener fn) { listener_ = std::move(fn); }

  /// The keypair (present iff signatures are enabled).
  const std::optional<crypto::Keypair>& keypair() const {
    return core_.keypair();
  }

 private:
  std::size_t announce_size(const ledger::Block& block) const;
  void on_message(const net::Message& msg);
  void on_block_found(std::uint64_t generation);
  void handle_block(ledger::BlockPtr block);
  /// Act on one core call: counters, traces, mining restart, own votes.
  void react(const ChainCore::Effects& fx);
  void restart_mining();

  net::Simulation& sim_;
  net::GossipNetwork& network_;
  NodeConfig config_;
  ChainCore core_;

  /// Mining randomness: exponential waiting times and nonces.
  Rng rng_;

  std::uint64_t mining_generation_ = 0;
  net::EventId mining_event_ = 0;
  bool started_ = false;
  bool suppressed_ = false;

  std::uint64_t blocks_produced_ = 0;
  std::uint64_t blocks_suppressed_ = 0;
  std::uint64_t blocks_rejected_ = 0;
  std::uint64_t reorgs_ = 0;
  std::uint64_t votes_sent_ = 0;
  ChainListener listener_;

  // Observability (null when the simulation has no bundle attached — the
  // default — so every hook below is one predictable branch).  The profiling
  // stats are resolved once here; hot paths never do the string-keyed
  // lookup.  The update-head scope is handed to the core, which runs
  // HeadTracker::on_insert.
  obs::Observability* obs_ = nullptr;
  obs::ScopeStat* prof_mine_ = nullptr;    ///< on_block_found
  obs::ScopeStat* prof_accept_ = nullptr;  ///< a block's core call + react
};

}  // namespace themis::consensus
