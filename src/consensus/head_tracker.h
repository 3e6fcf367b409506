// Incremental fork-choice head maintenance.
//
// The seed re-ran the full greedy walk from the finalized anchor on every
// block arrival (PowNode::update_head), then walked the parent chain again to
// advance the anchor.  With the tree's aggregates now O(1) that walk is
// cheap, but still O(finality_depth) per arrival — and almost all of it is
// re-deriving decisions whose inputs did not change.
//
// HeadTracker caches the preferred path (anchor … head, inclusive) and uses
// the fact that an insert only changes the aggregates of the inserted batch's
// ancestors:
//
//   * Batch extends the current head's subtree: every fork point on the
//     cached path is an ancestor of both the old head and the batch, so its
//     previously winning child just gained weight/depth — for all three rules
//     (longest-chain, GHOST, GEOST) improving the winner keeps it winning
//     (weight and depth are monotone; GEOST's variance tie-break is only
//     consulted on weight ties, and a strict winner's weight grew).  The walk
//     therefore resumes from the old head: O(batch).
//
//   * Batch hangs off a side branch: let D = LCA(batch root, old head).  Fork
//     points strictly above D on the cached path again only saw their winner
//     reinforced; fork points below D saw no input change at all.  Only the
//     decision AT D can flip.  If D's preferred child is unchanged the head
//     stands (O(1) after the LCA walk); otherwise the path is truncated at D
//     and re-extended greedily — exactly a reorg.
//
//   * Batch forks below the anchor: invisible to a walk starting at the
//     anchor; the head stands.
//
// The anchor advance is memoized by the same path: instead of walking
// `finality_depth` parents down from the head, the tracker pops the front of
// the cached path until it reaches the finalization height.
//
// The tracker's head/anchor/reorg sequence is bit-identical to the seed's
// recompute-from-anchor loop; tests/test_forkchoice_oracle.cpp checks that
// differentially on randomized (including orphan-adopted) insert sequences.
#pragma once

#include <cstdint>
#include <deque>

#include "consensus/forkchoice.h"
#include "ledger/blocktree.h"

namespace themis::consensus {

class HeadTracker {
 public:
  struct Update {
    bool head_changed = false;
    bool reorg = false;  ///< head changed and does not extend the old head
    /// Blocks abandoned from the old preferred path (old head back to the
    /// divergence point, exclusive).  Non-zero only when reorg is true.
    std::uint64_t reorg_depth = 0;
    /// The batch diverged below the hard-finalized height, so the head stood
    /// regardless of the batch's weight (checkpoint finality's guarantee).
    bool below_finalized = false;
  };

  /// (Re)start tracking: full greedy walk from `anchor`, then advance the
  /// anchor to trail the head by `finality_depth`.
  void reset(const ledger::BlockTree& tree, const ForkChoiceRule& rule,
             const ledger::BlockHash& anchor, std::uint64_t finality_depth);

  /// Incorporate a batch of newly inserted blocks forming a (sub)tree rooted
  /// at `batch_root` (a single block is a batch of one; orphan adoption
  /// yields larger batches, all descendants of the first attached block).
  Update on_insert(const ledger::BlockTree& tree, const ForkChoiceRule& rule,
                   const ledger::BlockHash& batch_root);

  /// Same, for callers that already know the batch root's parent and whether
  /// the batch is a single leaf block (the common gossip-arrival case): the
  /// head-extension fast path then needs no tree lookup at all.
  Update on_insert(const ledger::BlockTree& tree, const ForkChoiceRule& rule,
                   const ledger::BlockHash& batch_root,
                   const ledger::BlockHash& batch_parent, bool batch_is_leaf);

  /// Hard-finalize `block` (a certified checkpoint, already in the tree).  From here on, no insert can reorg the
  /// path at or below its height, and the anchor never trails below it.  If
  /// the certified block is off the current preferred path — the certified
  /// branch lost the weight race locally — the path is force-switched
  /// through it: hard finality outranks fork choice.  Returns true when that
  /// switch changed the head.  Monotone: calls at or below the current
  /// finalized height are no-ops.
  bool set_finalized(const ledger::BlockTree& tree, const ForkChoiceRule& rule,
                     const ledger::BlockHash& block);

  std::uint64_t finalized_height() const { return finalized_height_; }

  const ledger::BlockHash& head() const { return path_.back(); }
  const ledger::BlockHash& anchor() const { return path_.front(); }
  /// Path heights are contiguous, so both are known without a tree query —
  /// callers feed anchor_height() straight into set_aggregate_floor.
  std::uint64_t anchor_height() const { return anchor_height_; }
  std::uint64_t head_height() const {
    return anchor_height_ + path_.size() - 1;
  }

  /// Block on the cached preferred path at `height`, or nullptr when the
  /// height falls outside [anchor, head].  O(1) — ChainCore reads the block
  /// to vote on here.
  const ledger::BlockHash* path_block_at(std::uint64_t height) const {
    if (height < anchor_height_ || height - anchor_height_ >= path_.size()) {
      return nullptr;
    }
    return &path_[static_cast<std::size_t>(height - anchor_height_)];
  }

 private:
  /// Greedily extend the cached path from its current tip to a leaf.
  void extend_from_back(const ledger::BlockTree& tree,
                        const ForkChoiceRule& rule);
  /// Pop finalized blocks off the front so the anchor trails the head by at
  /// most `finality_depth_` (the seed's advance_anchor semantics) — and, when
  /// a checkpoint has hard-finalized past that probabilistic trail, so the
  /// anchor never sits below the hard-finalized height.
  void advance_anchor();

  std::deque<ledger::BlockHash> path_;  ///< anchor … head, contiguous heights
  std::uint64_t anchor_height_ = 0;     ///< height of path_.front()
  std::uint64_t finality_depth_ = 64;
  /// Hard floor from checkpoint finality (0 = none): reorgs diverging at
  /// or below this height are refused, and the anchor stays at or above it.
  std::uint64_t finalized_height_ = 0;
};

}  // namespace themis::consensus
