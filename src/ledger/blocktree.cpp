#include "ledger/blocktree.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"

namespace themis::ledger {

namespace {

/// splitmix64 finalizer — the standard bijective mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Fingerprint term for "producer p reached count c" (p, c < 2^32 by
/// construction: p indexes the consensus set, c counts blocks).
constexpr std::uint64_t fp_term(std::uint64_t seed, NodeId p,
                                std::uint64_t c) {
  return mix64(seed ^ ((static_cast<std::uint64_t>(p) << 32) | c));
}

constexpr std::uint64_t kFpSeedLo = 0x8E2F1D4B9C6A5E37ull;
constexpr std::uint64_t kFpSeedHi = 0x51C7A9E3F0B82D61ull;

/// Memoized frequency_variance_noalloc over the fingerprint: a pure-function
/// cache, so a hit returns the bit-identical double the caller would have
/// computed (the fingerprint pins the exact dense counts vector including
/// its length).  thread_local because trials run one per thread; within a
/// trial every simulated node keeps its own tree, and they all query the
/// same subtree contents — this is where the n-fold redundancy dies.  The
/// second half of the fingerprint is stored with the value so a slot
/// collision on the key half degrades to a recompute, never a wrong answer
/// (up to the 2^-128 full collision).  Only a miss pays the Θ(n_nodes)
/// densification of the sparse counts.
template <typename Stats>
double memoized_frequency_variance(const Stats& eq, std::size_t n_nodes,
                                   std::vector<std::uint64_t>& dense_scratch) {
  struct Slot {
    std::uint64_t fp_hi;
    double value;
  };
  thread_local std::unordered_map<std::uint64_t, Slot> memo;
  const std::uint64_t key = eq.fp_lo ^ mix64(kFpSeedLo ^ n_nodes);
  const std::uint64_t check = eq.fp_hi ^ mix64(kFpSeedHi ^ n_nodes);
  const auto it = memo.find(key);
  if (it != memo.end() && it->second.fp_hi == check) return it->second.value;
  dense_scratch.assign(n_nodes, 0);
  for (const auto& [p, c] : eq.counts) dense_scratch[p] = c;
  const double v =
      frequency_variance_noalloc(dense_scratch, static_cast<double>(eq.total));
  if (memo.size() >= (1u << 22)) memo.clear();  // bound long-process growth
  memo[key] = Slot{check, v};
  return v;
}

}  // namespace

BlockTree::BlockTree() : BlockTree(std::make_shared<const Block>(Block::genesis())) {}

BlockTree::BlockTree(BlockPtr genesis) {
  expects(genesis != nullptr, "genesis must not be null");
  // The root is usually the network genesis (height 0), but a node restoring
  // from a state snapshot re-roots its tree at the snapshot block: everything
  // below it is pruned, and the StateManager base carries the state at the
  // root inclusive.
  genesis_hash_ = genesis->id();
  const std::uint64_t root_height = genesis->height();
  // Head off the rehash cascade as chains grow (hundreds of simulated trees
  // each rehashing several times adds up); ~2 KB when the tree stays tiny.
  index_.reserve(256);
  index_.emplace(genesis_hash_, 0);
  Hot root{};
  root.height = root_height;
  root.subtree_max_height = root_height;
  hot_.push_back(root);
  max_height_ = root_height;
  bodies_resident_ = genesis->transactions().empty() ? 0 : 1;
  Cold c;
  c.block = std::move(genesis);
  c.id = genesis_hash_;
  c.receipt_seq = next_receipt_seq_++;
  cold_.push_back(std::move(c));
}

std::uint32_t BlockTree::index_of(const BlockHash& id) const {
  const auto it = index_.find(id);
  expects(it != index_.end(), "block not in tree");
  return it->second;
}

BlockTree::InsertResult BlockTree::insert(BlockPtr block) {
  expects(block != nullptr, "block must not be null");
  const BlockHash id = block->id();
  const BlockHash parent_id = block->header().prev;

  // One probe serves as both the duplicate check and the slot reservation;
  // the index is claimed by attach() or the reservation erased on the orphan
  // path.
  const auto [slot, inserted] =
      index_.try_emplace(id, static_cast<std::uint32_t>(hot_.size()));
  if (!inserted) return InsertResult::duplicate;

  const auto parent_it = index_.find(parent_id);
  if (parent_it == index_.end()) {
    index_.erase(slot);
    auto& waiting = orphans_[parent_id];
    const bool already_waiting =
        std::any_of(waiting.begin(), waiting.end(),
                    [&](const BlockPtr& b) { return b->id() == id; });
    if (!already_waiting) waiting.push_back(std::move(block));
    return InsertResult::orphaned;
  }

  attach(std::move(block), parent_it->second, slot->second);
  if (orphans_.empty()) return InsertResult::inserted;

  // Pull in any orphan chains this block unblocked (breadth-first).
  std::vector<BlockHash> ready{id};
  while (!ready.empty()) {
    const BlockHash next = ready.back();
    ready.pop_back();
    const auto it = orphans_.find(next);
    if (it == orphans_.end()) continue;
    std::vector<BlockPtr> waiting = std::move(it->second);
    orphans_.erase(it);
    for (BlockPtr& w : waiting) {
      const BlockHash wid = w->id();
      const std::uint32_t wparent = index_.at(w->header().prev);
      const auto [wslot, winserted] =
          index_.try_emplace(wid, static_cast<std::uint32_t>(hot_.size()));
      if (winserted) {
        attach(std::move(w), wparent, wslot->second);
        ready.push_back(wid);
      }
    }
  }
  return InsertResult::inserted;
}

void BlockTree::attach(BlockPtr block, std::uint32_t parent,
                       std::uint32_t idx) {
  ensures(block->height() == hot_[parent].height + 1,
          "child height must be parent height + 1");
  ensures(idx == hot_.size(), "attach must claim the next index");
  const BlockHash id = block->id();
  cold_[parent].children.push_back(id);

  const std::uint64_t h = block->height();
  const NodeId producer = block->producer();
  if (!block->transactions().empty()) ++bodies_resident_;

  Hot hot;
  hot.height = h;
  hot.subtree_max_height = h;
  hot.parent = parent;
  hot_.push_back(hot);
  Cold cold;
  cold.block = std::move(block);
  cold.id = id;
  cold.parent = cold_[parent].id;
  cold.receipt_seq = next_receipt_seq_++;
  cold_.push_back(std::move(cold));
  max_height_ = std::max(max_height_, h);

  // Incremental propagation: every ancestor's subtree gained this block.
  // Tracked equality statistics along the path absorb the producer and drop
  // their cached variance.  The walk stops below the aggregate floor —
  // those caches freeze and cold queries recompute against the frontier.
  for (std::uint32_t a = parent; a != kNoIndex;) {
    Hot& ah = hot_[a];
    if (ah.height < aggregate_floor_) break;
    ++ah.subtree_size;
    if (ah.subtree_max_height < h) ah.subtree_max_height = h;
    if (ah.equality != kNoIndex && producer < equality_n_nodes_) {
      EqualityStats& eq = equality_pool_[ah.equality];
      const std::uint32_t c = eq.bump(producer);
      ++eq.total;
      eq.fp_lo += fp_term(kFpSeedLo, producer, c);
      eq.fp_hi += fp_term(kFpSeedHi, producer, c);
      eq.variance_valid = false;
    }
    a = ah.parent;
  }
}

BlockPtr BlockTree::block(const BlockHash& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : cold_[it->second].block;
}

void BlockTree::release_body(const BlockHash& id) {
  BlockPtr& block = cold_[index_of(id)].block;
  if (block->transactions().empty()) return;
  block = std::make_shared<const Block>(block->header(), block->signature(),
                                        std::vector<Transaction>{});
  --bodies_resident_;
}

BlockPtr BlockTree::body(const BlockHash& id) const {
  BlockPtr held = block(id);
  // A header that commits to more transactions than the entry holds is a
  // released body (or, in the simulator, one never materialized).
  if (held == nullptr ||
      held->transactions().size() == held->header().tx_count) {
    return held;
  }
  return body_loader_ ? body_loader_(id) : nullptr;
}

const std::vector<BlockHash>& BlockTree::children(const BlockHash& id) const {
  return cold_[index_of(id)].children;
}

std::optional<BlockHash> BlockTree::parent(const BlockHash& id) const {
  const std::uint32_t idx = index_of(id);
  if (idx == 0) return std::nullopt;  // genesis
  return cold_[idx].parent;
}

std::uint64_t BlockTree::height(const BlockHash& id) const {
  return hot_[index_of(id)].height;
}

std::uint64_t BlockTree::receipt_seq(const BlockHash& id) const {
  return cold_[index_of(id)].receipt_seq;
}

std::uint64_t BlockTree::subtree_size(const BlockHash& id) const {
  const std::uint32_t idx = index_of(id);
  if (hot_[idx].height >= aggregate_floor_) return hot_[idx].subtree_size;
  return cold_subtree_size(idx);
}

std::uint64_t BlockTree::subtree_max_height(const BlockHash& id) const {
  const std::uint32_t idx = index_of(id);
  if (hot_[idx].height >= aggregate_floor_) return hot_[idx].subtree_max_height;
  return cold_subtree_max_height(idx);
}

std::uint64_t BlockTree::cold_subtree_size(std::uint32_t root) const {
  std::uint64_t total = 0;
  dfs_scratch_.clear();
  dfs_scratch_.push_back(root);
  while (!dfs_scratch_.empty()) {
    const std::uint32_t cur = dfs_scratch_.back();
    dfs_scratch_.pop_back();
    ++total;
    for (const BlockHash& child : cold_[cur].children) {
      const std::uint32_t c = index_of(child);
      if (hot_[c].height >= aggregate_floor_) {
        total += hot_[c].subtree_size;  // still maintained, hence exact
      } else {
        dfs_scratch_.push_back(c);
      }
    }
  }
  return total;
}

std::uint64_t BlockTree::cold_subtree_max_height(std::uint32_t root) const {
  std::uint64_t best = hot_[root].height;
  dfs_scratch_.clear();
  dfs_scratch_.push_back(root);
  while (!dfs_scratch_.empty()) {
    const std::uint32_t cur = dfs_scratch_.back();
    dfs_scratch_.pop_back();
    best = std::max(best, hot_[cur].height);
    for (const BlockHash& child : cold_[cur].children) {
      const std::uint32_t c = index_of(child);
      if (hot_[c].height >= aggregate_floor_) {
        best = std::max(best, hot_[c].subtree_max_height);
      } else {
        dfs_scratch_.push_back(c);
      }
    }
  }
  return best;
}

BlockTree::EqualityStats& BlockTree::equality_stats(std::uint32_t idx,
                                                    std::size_t n_nodes) const {
  expects(n_nodes >= 1, "equality statistics need the consensus-set size");
  if (equality_n_nodes_ != n_nodes) {
    // Tracked width changed (e.g. a rule with a different consensus-set
    // size): flush everything and re-track on demand.
    for (Hot& h : hot_) h.equality = kNoIndex;
    equality_pool_.clear();
    equality_free_.clear();
    equality_n_nodes_ = n_nodes;
  }
  if (hot_[idx].equality != kNoIndex) return equality_pool_[hot_[idx].equality];

  // First query for this subtree: materialize exact counts with one DFS,
  // then keep them current via the insert-time root-path walk.  Recycle a
  // slot retired by the floor advance when one is available.
  std::uint32_t slot;
  if (!equality_free_.empty()) {
    slot = equality_free_.back();
    equality_free_.pop_back();
    EqualityStats& reused = equality_pool_[slot];
    reused.counts.clear();
    reused.total = 0;
    reused.variance_valid = false;
    reused.fp_lo = 0;
    reused.fp_hi = 0;
  } else {
    slot = static_cast<std::uint32_t>(equality_pool_.size());
    equality_pool_.emplace_back();
  }
  EqualityStats& eq = equality_pool_[slot];
  eq.owner = idx;
  dfs_scratch_.clear();
  dfs_scratch_.push_back(idx);
  while (!dfs_scratch_.empty()) {
    const std::uint32_t cur = dfs_scratch_.back();
    dfs_scratch_.pop_back();
    const NodeId producer = cold_[cur].block->producer();
    if (producer < n_nodes) {
      const std::uint32_t c = eq.bump(producer);
      ++eq.total;
      eq.fp_lo += fp_term(kFpSeedLo, producer, c);
      eq.fp_hi += fp_term(kFpSeedHi, producer, c);
    }
    for (const BlockHash& child : cold_[cur].children) {
      dfs_scratch_.push_back(index_of(child));
    }
  }
  hot_[idx].equality = slot;
  return eq;
}

void BlockTree::set_aggregate_floor(std::uint64_t height) {
  if (height <= aggregate_floor_) return;
  aggregate_floor_ = height;
  // Retire statistics for subtrees that sank below the floor: the insert
  // walk no longer feeds them, so they would only go stale — and each one
  // pins memory.  Queries down there recompute cold.
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(equality_pool_.size()); ++i) {
    EqualityStats& eq = equality_pool_[i];
    if (eq.owner == kNoIndex || hot_[eq.owner].height >= aggregate_floor_) {
      continue;
    }
    hot_[eq.owner].equality = kNoIndex;
    eq.owner = kNoIndex;
    eq.counts.clear();
    eq.counts.shrink_to_fit();
    equality_free_.push_back(i);
  }
}

double BlockTree::subtree_equality_variance(const BlockHash& id,
                                            std::size_t n_nodes) const {
  const std::uint32_t idx = index_of(id);
  if (hot_[idx].height < aggregate_floor_) {
    // The incremental walk no longer feeds statistics frozen below the
    // floor; recompute from scratch.  Identical integer counts feed the
    // same arithmetic, so this stays bit-identical to the hot path.
    subtree_producer_counts(id, n_nodes, counts_scratch_);
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_scratch_) total += c;
    return frequency_variance_noalloc(counts_scratch_,
                                      static_cast<double>(total));
  }
  EqualityStats& eq = equality_stats(idx, n_nodes);
  if (!eq.variance_valid) {
    eq.variance = memoized_frequency_variance(eq, n_nodes, counts_scratch_);
    eq.variance_valid = true;
  }
  return eq.variance;
}

std::vector<std::uint64_t> BlockTree::subtree_producer_counts(
    const BlockHash& id, std::size_t n_nodes) const {
  std::vector<std::uint64_t> counts;
  subtree_producer_counts(id, n_nodes, counts);
  return counts;
}

void BlockTree::subtree_producer_counts(const BlockHash& id,
                                        std::size_t n_nodes,
                                        std::vector<std::uint64_t>& out) const {
  out.assign(n_nodes, 0);
  dfs_scratch_.clear();
  dfs_scratch_.push_back(index_of(id));
  while (!dfs_scratch_.empty()) {
    const std::uint32_t cur = dfs_scratch_.back();
    dfs_scratch_.pop_back();
    const NodeId producer = cold_[cur].block->producer();
    if (producer < n_nodes) ++out[producer];
    for (const BlockHash& child : cold_[cur].children) {
      dfs_scratch_.push_back(index_of(child));
    }
  }
}

std::vector<BlockHash> BlockTree::chain_to(const BlockHash& head) const {
  std::vector<BlockHash> chain;
  std::uint32_t cur = index_of(head);
  for (;;) {
    chain.push_back(cold_[cur].id);
    if (cur == 0) break;  // genesis
    cur = hot_[cur].parent;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

bool BlockTree::is_ancestor(const BlockHash& ancestor,
                            const BlockHash& descendant) const {
  const std::uint32_t target = index_of(ancestor);
  const std::uint64_t target_height = hot_[target].height;
  std::uint32_t cur = index_of(descendant);
  while (hot_[cur].height > target_height) cur = hot_[cur].parent;
  return cur == target;
}

BlockHash BlockTree::lowest_common_ancestor(const BlockHash& a,
                                            const BlockHash& b) const {
  std::uint32_t ia = index_of(a);
  std::uint32_t ib = index_of(b);
  while (hot_[ia].height > hot_[ib].height) ia = hot_[ia].parent;
  while (hot_[ib].height > hot_[ia].height) ib = hot_[ib].parent;
  while (ia != ib) {
    ia = hot_[ia].parent;
    ib = hot_[ib].parent;
  }
  return cold_[ia].id;
}

std::vector<BlockHash> BlockTree::tips() const {
  std::vector<BlockHash> out;
  for (const Cold& c : cold_) {
    if (c.children.empty()) out.push_back(c.id);
  }
  return out;
}

std::size_t BlockTree::orphan_count() const {
  std::size_t count = 0;
  for (const auto& [parent, waiting] : orphans_) count += waiting.size();
  return count;
}

}  // namespace themis::ledger
