// The §III chain round, written once for the simulator and the daemon.
//
// ChainCore validates a received block, inserts it together with every
// buffered orphan it unblocks, re-runs the fork-choice rule and — when
// checkpoint_interval > 0 — casts this node's checkpoint votes, counts the
// network's and hard-finalizes certified checkpoints.  It owns the BlockTree,
// HeadTracker, orphan buffer, rule, difficulty policy, key registry and
// CheckpointTracker.  It does no I/O, takes no locks and reads no clock; each
// call returns Effects and the caller acts on them: consensus::PowNode (the
// simulator adapter) restarts its mining timer and gossips its votes,
// p2p::P2pNode (the daemon adapter) persists, reconciles and relays.
//
// One post-change routine (settle) runs whether the head moved because of a
// block or because of a certificate: it applies certificates whose block is
// now known, votes for every checkpoint height the head newly covers (once
// per height, ever) and raises the tree's aggregate floor.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "consensus/difficulty.h"
#include "consensus/forkchoice.h"
#include "consensus/head_tracker.h"
#include "crypto/schnorr.h"
#include "finality/tracker.h"
#include "ledger/blocktree.h"
#include "ledger/validation.h"
#include "obs/profile.h"

namespace themis::consensus {

/// Maps node ids to their public keys when header signatures are enabled.
class KeyRegistry {
 public:
  void add(ledger::NodeId id, crypto::PublicKey key) { keys_[id] = key; }
  std::optional<crypto::PublicKey> lookup(ledger::NodeId id) const {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<ledger::NodeId, crypto::PublicKey> keys_;
};

struct ChainCoreConfig {
  ledger::NodeId id = 0;
  /// Consortium size: members 0..n-1 vote on checkpoints, one vote each.
  std::size_t n_nodes = 0;
  /// The fork-choice walk starts this many blocks behind the head.
  std::uint64_t finality_depth = 64;
  /// Sign own votes with Keypair::from_node_id(id); verify received header
  /// and vote signatures against the key registry.
  bool use_signatures = false;
  /// Check real proof-of-work and body commitments (only the daemon grinds
  /// nonces and carries bodies).
  bool check_work = false;
  /// Hard finality every k heights (0 = off).
  std::uint64_t checkpoint_interval = 0;
  std::string finality_backend = "concat";  ///< "concat" or "half"
};

class ChainCore {
 public:
  /// Orphan-buffer capacity, oldest evicted first: two full sync batches
  /// (p2p::kMaxSyncBlocks), so one orphaned batch always fits.
  static constexpr std::size_t kMaxOrphans = 1024;

  /// What one add_block / add_own_block / add_vote call changed: the head
  /// update (a forced switch also sets head_changed and reorg, with
  /// reorg_depth 0), plus everything else the caller acts on.
  struct Effects : HeadTracker::Update {
    ledger::BlockHash old_head{};  ///< head before the call
    /// Blocks added, in insertion order: the block, then the orphans it
    /// unblocked (the receipt order GEOST's tie-break reads).
    std::vector<ledger::BlockPtr> inserted;
    /// Blocks that failed validation (submitted or unblocked), once each.
    std::vector<ledger::BlockPtr> rejected;
    bool duplicate = false;  ///< already in the tree
    bool orphaned = false;   ///< parent unknown: newly buffered
    bool forced = false;  ///< a certificate switched onto a lighter branch
    /// Own checkpoint votes cast by the call, to broadcast.
    std::vector<finality::CheckpointVote> votes;
    std::uint64_t certificates = 0;  ///< quorums completed (applied or parked)
    /// Certificates applied: hard-finalized checkpoints.
    std::vector<finality::CheckpointCertificate> finalized;
    std::optional<finality::VoteOutcome> vote;  ///< add_vote's verdict
  };

  /// Extra validation once the §III header checks pass (the daemon replays
  /// the body against the parent state); false rejects the block.
  using BodyCheck = std::function<bool(const ledger::Block&)>;

  ChainCore(ChainCoreConfig config, std::shared_ptr<ForkChoiceRule> rule,
            std::shared_ptr<DifficultyPolicy> policy,
            std::shared_ptr<const KeyRegistry> registry = nullptr);
  ChainCore(const ChainCore&) = delete;
  ChainCore& operator=(const ChainCore&) = delete;

  /// A block from the network: duplicate check, orphan buffering, §III
  /// validation, insertion with every orphan it unblocks.
  Effects add_block(ledger::BlockPtr block);
  /// A block this node just produced on its head: inserted unvalidated.
  Effects add_own_block(ledger::BlockPtr block);
  /// A checkpoint vote from the network (requires checkpoints()).
  Effects add_vote(const finality::CheckpointVote& vote);

  /// Restart on `tree` (store replay, snapshot re-root).
  void reset(ledger::BlockTree tree);
  void set_body_check(BodyCheck check) { body_check_ = std::move(check); }
  /// Where released bodies are read back from (kept across reset()).
  void set_body_loader(ledger::BlockTree::BodyLoader loader);
  /// Release the decoded bodies of hard-finalized `checkpoint` and its
  /// ancestors; the owner's loader serves them from here on.  The finalized
  /// chain only grows, so each call walks down only to the previous one's
  /// height.
  void release_bodies(const ledger::BlockHash& checkpoint);
  /// Simulator profiling of the HeadTracker update: wall-clock readings that
  /// only feed reports, never the chain.
  void set_profile(obs::ScopeStat* update_head) {
    prof_update_head_ = update_head;
  }

  const ledger::BlockTree& tree() const { return tree_; }
  const HeadTracker& tracker() const { return tracker_; }
  const ledger::BlockHash& head() const { return tracker_.head(); }
  std::uint64_t head_height() const { return tracker_.head_height(); }
  /// Highest checkpoint applied to fork choice (0 = none).
  std::uint64_t finalized_height() const { return tracker_.finalized_height(); }
  DifficultyPolicy& policy() const { return *policy_; }
  /// This node's signing key (present iff use_signatures).
  const std::optional<crypto::Keypair>& keypair() const { return keypair_; }
  /// The checkpoint tracker, or nullptr when finality is off.
  const finality::CheckpointTracker* checkpoints() const {
    return ckpt_.has_value() ? &*ckpt_ : nullptr;
  }
  std::size_t orphan_count() const { return orphan_age_.size(); }

 private:
  struct Orphan {
    std::uint64_t seq = 0;  ///< arrival number (eviction age)
    ledger::BlockPtr block;
  };

  bool validate(const ledger::Block& block) const;
  void buffer_orphan(ledger::BlockPtr block, Effects& fx);
  /// Insert `block` and the orphans it unblocks, update the head, settle.
  void accept(ledger::BlockPtr block, Effects& fx);
  void settle(Effects& fx);
  /// Apply parked certificates whose block is in the tree.
  void apply_parked(Effects& fx);
  void cast_votes(Effects& fx);

  ChainCoreConfig config_;
  std::shared_ptr<ForkChoiceRule> rule_;
  std::shared_ptr<DifficultyPolicy> policy_;
  std::shared_ptr<const KeyRegistry> registry_;
  std::optional<crypto::Keypair> keypair_;
  ledger::ValidationContext validation_;  ///< reads tree_ and policy_
  BodyCheck body_check_;
  ledger::BlockTree::BodyLoader body_loader_;
  std::uint64_t released_height_ = 0;  ///< bodies released at or below

  ledger::BlockTree tree_;
  HeadTracker tracker_;
  /// Blocks whose parent is unknown, by parent id, in arrival order.
  std::unordered_map<ledger::BlockHash, std::vector<Orphan>, Hash32Hasher>
      orphans_;
  std::map<std::uint64_t, ledger::BlockHash> orphan_age_;  ///< seq -> parent
  std::uint64_t orphan_seq_ = 0;

  std::optional<finality::CheckpointTracker> ckpt_;
  std::uint64_t last_voted_ = 0;  ///< highest checkpoint we voted on
  /// Certificates waiting for their block (quorum can outrun gossip).
  std::vector<finality::CheckpointCertificate> parked_;

  obs::ScopeStat* prof_update_head_ = nullptr;
};

}  // namespace themis::consensus
