// Per-checkpoint vote accumulation and the >2/3 hard-finality rule.
//
// The tracker is transport-agnostic: consensus::ChainCore owns one and feeds
// it votes from the wire and its own — for the daemon and the simulator
// alike — and asks the same questions: did this vote reach quorum, what is
// the finalized height, what certificate proves it.
//
// Vote discipline (the adversarial cases tests exercise):
//   * one vote per (height, voter): a second identical vote is a duplicate,
//     a second vote for a DIFFERENT block at the same height is an
//     equivocation — rejected and counted, the first vote stands;
//   * voters outside the registered set are rejected;
//   * signatures are checked against the registry (can be disabled for
//     large-n simulation models where crypto is not the measured quantity);
//   * votes at or below the finalized height are stale.
//
// Votes for blocks the local tree has not seen yet are accepted — quorum can
// complete before the block arrives (gossip reorders freely); the CALLER
// decides when a formed certificate may be acted on.  Finalization is
// monotone: finalize() only advances.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "finality/aggregation.h"
#include "finality/checkpoint.h"

namespace themis::finality {

enum class VoteOutcome {
  accepted,       ///< new vote, counted toward its checkpoint
  quorum,         ///< accepted AND completed a certificate
  duplicate,      ///< already held this exact vote
  equivocation,   ///< same (height, voter), different block — rejected
  unknown_voter,  ///< voter not in the registered consortium
  bad_signature,  ///< Schnorr verification failed
  bad_height,     ///< height not a checkpoint multiple, or epoch mismatch
  stale,          ///< at or below the finalized height
};

std::string_view to_string(VoteOutcome outcome);

struct TrackerConfig {
  /// Checkpoint interval k: votes are cast at heights k, 2k, 3k, …
  std::uint64_t interval = 16;
  /// Simulations with signatures off skip per-vote Schnorr verification
  /// (large sweeps measure propagation, not crypto).  The daemon keeps it on.
  bool verify_signatures = true;
  /// Votes for checkpoints this far below the finalized height are dropped
  /// and their state pruned; the last finalized checkpoint's votes are kept
  /// so freshly connected peers can be brought to quorum.
  std::uint64_t retain_below = 1;
};

class CheckpointTracker {
 public:
  struct Stats {
    std::uint64_t votes_accepted = 0;
    std::uint64_t votes_duplicate = 0;
    std::uint64_t votes_equivocation = 0;
    std::uint64_t votes_unknown_voter = 0;
    std::uint64_t votes_bad_signature = 0;
    std::uint64_t votes_bad_height = 0;
    std::uint64_t votes_stale = 0;
    std::uint64_t certificates_formed = 0;
  };

  CheckpointTracker(TrackerConfig config, ValidatorSet validators,
                    std::unique_ptr<AggregationBackend> backend);

  std::uint64_t interval() const { return config_.interval; }
  bool is_checkpoint_height(std::uint64_t height) const {
    return height > 0 && height % config_.interval == 0;
  }
  /// The expected epoch tag for a checkpoint height (its sequence number).
  std::uint64_t epoch_of(std::uint64_t height) const {
    return height / config_.interval;
  }

  /// Validate and accumulate one vote.  On quorum the certificate is built,
  /// recorded, and the finalized height advanced (monotonically).
  VoteOutcome add_vote(const CheckpointVote& vote);

  /// Sign and accumulate our own vote (convenience for real nodes).
  CheckpointVote make_vote(std::uint64_t height, const ledger::BlockHash& block,
                           const crypto::Keypair& keypair,
                           ledger::NodeId voter) const;

  std::uint64_t finalized_height() const { return finalized_height_; }
  const std::optional<ledger::BlockHash>& finalized_block() const {
    return finalized_block_;
  }

  /// The certificate formed at `height`, or nullptr.
  const CheckpointCertificate* certificate(std::uint64_t height) const;
  /// The certificate at the highest finalized height, or nullptr.
  const CheckpointCertificate* latest_certificate() const {
    return certificate(finalized_height_);
  }

  /// Every retained vote (newest checkpoints included), for offering to a
  /// freshly connected peer the way the tx pool is offered.
  std::vector<CheckpointVote> retained_votes() const;

  /// Votes accumulated so far for (height, block) — the per-checkpoint vote
  /// count metrics read this.
  std::size_t votes_for(std::uint64_t height,
                        const ledger::BlockHash& block) const;

  const ValidatorSet& validators() const { return validators_; }
  const AggregationBackend& backend() const { return *backend_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Candidate {
    std::vector<CheckpointVote> votes;  ///< sorted by voter
    std::uint64_t weight = 0;           ///< sum of the voters' weights
  };
  struct Tally {
    std::map<ledger::BlockHash, Candidate> by_block;
    /// First block each voter committed to (equivocation detection).
    std::unordered_map<ledger::NodeId, ledger::BlockHash> voted;
  };

  /// Drop per-height vote state below the retention floor.
  void prune_below(std::uint64_t height);

  TrackerConfig config_;
  ValidatorSet validators_;
  std::unique_ptr<AggregationBackend> backend_;

  std::map<std::uint64_t, Tally> tallies_;  ///< by checkpoint height
  std::map<std::uint64_t, CheckpointCertificate> certificates_;
  std::uint64_t finalized_height_ = 0;
  std::optional<ledger::BlockHash> finalized_block_;
  Stats stats_;
};

}  // namespace themis::finality
