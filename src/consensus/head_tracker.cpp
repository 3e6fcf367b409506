#include "consensus/head_tracker.h"

#include <algorithm>

#include "common/check.h"

namespace themis::consensus {

using ledger::BlockHash;
using ledger::BlockTree;

void HeadTracker::reset(const BlockTree& tree, const ForkChoiceRule& rule,
                        const BlockHash& anchor,
                        std::uint64_t finality_depth) {
  expects(tree.contains(anchor), "anchor must be in the tree");
  finality_depth_ = finality_depth;
  finalized_height_ = 0;
  path_.clear();
  path_.push_back(anchor);
  anchor_height_ = tree.height(anchor);
  extend_from_back(tree, rule);
  advance_anchor();
}

HeadTracker::Update HeadTracker::on_insert(const BlockTree& tree,
                                           const ForkChoiceRule& rule,
                                           const BlockHash& batch_root) {
  const std::optional<BlockHash> batch_parent = tree.parent(batch_root);
  expects(batch_parent.has_value(), "batch root must be a non-genesis block");
  return on_insert(tree, rule, batch_root, *batch_parent, false);
}

HeadTracker::Update HeadTracker::on_insert(const BlockTree& tree,
                                           const ForkChoiceRule& rule,
                                           const BlockHash& batch_root,
                                           const BlockHash& batch_parent,
                                           bool batch_is_leaf) {
  expects(!path_.empty(), "reset() must run before on_insert()");
  Update update;
  const BlockHash old_head = path_.back();

  if (batch_parent == old_head) {
    // The hot case: the batch hangs directly off the head.  The old head was
    // a leaf before this batch, so the batch root is its only child and the
    // path extends through it; fork points higher up only saw their winning
    // child reinforced (weight and depth are monotone, and GEOST's variance
    // tie-break is only consulted on weight ties, impossible after the
    // winner's weight strictly grew).
    path_.push_back(batch_root);
    if (!batch_is_leaf) extend_from_back(tree, rule);
    update.head_changed = true;
    advance_anchor();
    return update;
  }
  // A single leaf whose parent is not the old head cannot contain the old
  // head (a leaf) on its ancestor path; larger batches (orphan adoption) may
  // still attach deeper inside the head's subtree.
  if (!batch_is_leaf && tree.is_ancestor(old_head, batch_root)) {
    update.head_changed = true;
    extend_from_back(tree, rule);
    advance_anchor();
    return update;
  }

  const BlockHash divergence =
      tree.lowest_common_ancestor(batch_root, old_head);
  const std::uint64_t div_height = tree.height(divergence);
  if (div_height < anchor_height_) {
    // The batch forked off below the anchor; a walk from the anchor never
    // sees it.  When the divergence also sits below a hard-finalized
    // checkpoint, flag it — this is the reorg attempt checkpoint finality
    // exists to refuse, and callers count those.
    update.below_finalized =
        finalized_height_ > 0 && div_height < finalized_height_;
    return update;
  }

  // `divergence` lies on the cached path (it is an ancestor of the head at
  // or above the anchor); heights along the path are contiguous.
  const std::size_t idx = static_cast<std::size_t>(div_height - anchor_height_);
  ensures(path_[idx] == divergence, "cached path must contain the LCA");
  ensures(idx + 1 < path_.size(),
          "head-extending batches are handled by the fast path");
  const BlockHash on_path_child = path_[idx + 1];
  if (rule.preferred_child(tree, divergence) == on_path_child) {
    // The only decision the batch could flip did not flip; every decision
    // further down the path has unchanged inputs.
    return update;
  }

  // Reorg: the preferred subtree at the divergence point changed.  Rebuild
  // the path from there.
  update.reorg_depth = path_.size() - (idx + 1);
  path_.erase(path_.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
              path_.end());
  extend_from_back(tree, rule);
  update.head_changed = true;
  update.reorg = true;
  advance_anchor();
  return update;
}

bool HeadTracker::set_finalized(const BlockTree& tree,
                                const ForkChoiceRule& rule,
                                const BlockHash& block) {
  expects(!path_.empty(), "reset() must run before set_finalized()");
  expects(tree.contains(block), "finalized block must be in the tree");
  const std::uint64_t h = tree.height(block);
  if (h <= finalized_height_) return false;  // monotone

  bool on_path;
  if (h < anchor_height_) {
    on_path = tree.is_ancestor(block, path_.front());
  } else {
    const std::size_t idx = static_cast<std::size_t>(h - anchor_height_);
    on_path = idx < path_.size() && path_[idx] == block;
  }
  bool head_changed = false;
  if (!on_path) {
    // The certified checkpoint is off our preferred path: the network
    // hard-committed a branch that is (locally) losing the weight race.
    // Finality outranks fork choice — rebuild the path through the
    // certificate and greedily extend within its subtree.
    const BlockHash old_head = path_.back();
    path_.clear();
    path_.push_back(block);
    anchor_height_ = h;
    extend_from_back(tree, rule);
    head_changed = path_.back() != old_head;
  }
  finalized_height_ = h;
  advance_anchor();
  return head_changed;
}

void HeadTracker::extend_from_back(const BlockTree& tree,
                                   const ForkChoiceRule& rule) {
  BlockHash cur = path_.back();
  for (;;) {
    const std::vector<BlockHash>& kids = tree.children(cur);
    if (kids.empty()) break;
    cur = rule.preferred_child(tree, kids);
    path_.push_back(cur);
  }
}

void HeadTracker::advance_anchor() {
  const std::uint64_t head_height = anchor_height_ + path_.size() - 1;
  std::uint64_t target =
      head_height > finality_depth_ ? head_height - finality_depth_ : 0;
  // The hard floor outranks the probabilistic trail: once the consortium has
  // certified a checkpoint, the anchor (and with it the aggregate floor and
  // the snapshot/pruning cursor) never sits below it.
  target = std::max(target, std::min(finalized_height_, head_height));
  while (anchor_height_ < target) {
    path_.pop_front();
    ++anchor_height_;
  }
}

}  // namespace themis::consensus
