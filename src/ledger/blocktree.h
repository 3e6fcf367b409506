// The local block tree.
//
// Each consensus node keeps every valid block it has seen in a tree rooted at
// the genesis block (§III: "Valid blocks will be added to the local block
// tree").  Fork-choice rules (longest-chain, GHOST, GEOST) walk this tree and
// rank sibling subtrees by per-subtree aggregates:
//
//   * subtree_size        — block count (GHOST / GEOST weight),
//   * subtree_max_height  — deepest reachable height (longest-chain),
//   * per-producer counts — GEOST's Eq. 1 equality variance.
//
// These used to be recomputed by a full DFS on every query, which made every
// block arrival cost O(subtree × n_nodes) and the simulated consensus cost
// grow quadratically in chain length.  They are now maintained
// *incrementally*: `insert` (including orphan adoption) propagates
// `subtree_size` / `subtree_max_height` up the root path in O(depth), and the
// producer-count statistics GEOST needs are materialized lazily per fork
// candidate and then kept up to date by the same root-path walk, with the
// Eq. 1 variance cached per entry and recomputed (allocation-free and
// bit-identical to the original DFS arithmetic) only when the subtree
// changed.  Aggregate queries are O(1); the retained DFS versions live in
// tests/oracles/naive_aggregates.h as the differential-testing oracle.
//
// On long chains even the O(depth) root-path walk dominates (every insert
// touches thousands of finalized ancestors nobody will ever query again), so
// consumers with a finality notion cap it with `set_aggregate_floor`: the
// walk stops once it drops below the floor, keeping per-insert work
// O(tip height − floor).  The floor is purely a performance hint — queries
// below it stay exact, they just recompute on demand against the
// exact-cached frontier at the floor instead of reading a cache.  PowNode
// advances the floor with its finalized anchor (fork-choice walks never
// start below it); trees that never set a floor keep every entry exact.
//
// Storage is split by access pattern: the root-path walk is pure pointer
// chasing, so the five fields it touches live in a contiguous `Hot` array
// indexed by insertion order (ancestors of a fresh block have nearby indices,
// so the walk stays within a few cache lines instead of hopping across
// node-based map allocations — at thousands of simulated nodes this is the
// difference between the walk being latency-bound and throughput-bound).
// Everything queried per-block (the block pointer, children, receipt order)
// lives in a parallel `Cold` deque whose references are stable across
// inserts, preserving the old map-backed reference-stability guarantees of
// `children()`.
//
// Blocks can arrive out of order over gossip; children that arrive before
// their parent wait in an orphan buffer and are attached recursively once the
// parent shows up.
//
// Where a block's transactions live is decided here too.  Fork choice,
// difficulty and the equality statistics read headers only, so an owner with
// a durable copy of the bodies (the live node's BlockStore) can
// `release_body` an entry: the entry keeps a header-only block, the form the
// simulator's blocks always take, and `body()` reads the transactions back
// through the loader the owner installed.  Readers of transactions go through
// `body()`; header readers keep `block()`.
//
// Thread-safety: the equality-statistics accessors cache through `mutable`
// members, so even `const` BlockTree methods are NOT safe for concurrent
// calls.  Trees are per-node, per-trial objects in the simulator; the
// parallel trial runner never shares one across threads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/block.h"
#include "ledger/types.h"

namespace themis::ledger {

class BlockTree {
 public:
  /// A tree always starts from the shared genesis block.
  BlockTree();
  explicit BlockTree(BlockPtr genesis);

  /// All internal links are indices, so moves are cheap and safe; copying
  /// would be correct too but is expensive and never wanted.
  BlockTree(BlockTree&&) = default;
  BlockTree& operator=(BlockTree&&) = default;
  BlockTree(const BlockTree&) = delete;
  BlockTree& operator=(const BlockTree&) = delete;

  enum class InsertResult {
    inserted,   ///< attached to the tree (possibly pulling in orphans)
    duplicate,  ///< already present
    orphaned,   ///< parent unknown; buffered until it arrives
  };

  InsertResult insert(BlockPtr block);

  bool contains(const BlockHash& id) const { return index_.contains(id); }
  /// The entry's block as held: header-only once its body was released.
  BlockPtr block(const BlockHash& id) const;
  const BlockHash& genesis_hash() const { return genesis_hash_; }

  /// Reads a released body back: the full block, or nullptr when the owner
  /// no longer has it.
  using BodyLoader = std::function<BlockPtr(const BlockHash&)>;
  void set_body_loader(BodyLoader loader) { body_loader_ = std::move(loader); }

  /// Replace the entry's block with its header-only form (same header and
  /// signature, no decoded transactions).  Id, parent, height, children,
  /// receipt order and aggregates are untouched.  A no-op for an empty or
  /// already released body.
  void release_body(const BlockHash& id);

  /// The block with its transactions: the resident one, else the loader's;
  /// nullptr for an unknown id, or a released body with no loader or one the
  /// loader cannot find.
  BlockPtr body(const BlockHash& id) const;

  /// Entries holding a non-empty decoded body.
  std::size_t bodies_resident() const { return bodies_resident_; }

  /// A 4-byte handle for `id`, stable for the tree's lifetime (its insertion
  /// index), for indexes that would otherwise store a 32-byte hash.
  std::uint32_t position(const BlockHash& id) const { return index_of(id); }
  const BlockHash& id_at(std::uint32_t position) const {
    return cold_.at(position).id;
  }

  /// Children of a block in local receipt order ("the first received
  /// sub-tree" tie-break in GEOST/GHOST depends on this order).
  const std::vector<BlockHash>& children(const BlockHash& id) const;
  std::optional<BlockHash> parent(const BlockHash& id) const;
  std::uint64_t height(const BlockHash& id) const;
  /// Monotone local arrival index (0 = genesis).
  std::uint64_t receipt_seq(const BlockHash& id) const;

  /// Number of blocks in the subtree rooted at `id` (inclusive).  O(1) at or
  /// above the aggregate floor; exact frontier-bounded recompute below it.
  std::uint64_t subtree_size(const BlockHash& id) const;

  /// Deepest height reachable within the subtree rooted at `id`.  O(1) at or
  /// above the aggregate floor; exact frontier-bounded recompute below it.
  std::uint64_t subtree_max_height(const BlockHash& id) const;

  /// Performance hint from consumers with a finality notion (monotone; never
  /// moves down).  Incremental aggregate maintenance stops below this
  /// height, so per-insert cost is O(tip height − floor) instead of
  /// O(depth).  Queries below the floor remain exact but recompute on
  /// demand.  Callers promise nothing — a fork-choice walk starting below
  /// the floor is still correct, just slower.  Raising the floor also
  /// retires equality statistics tracked for entries that sank below it,
  /// so long runs don't accumulate stats for settled forks.
  void set_aggregate_floor(std::uint64_t height);
  std::uint64_t aggregate_floor() const { return aggregate_floor_; }

  /// Variance of block-producing frequency within the subtree rooted at `id`
  /// (Eq. 1 applied to the subtree over `n_nodes` producers).  Amortized
  /// O(1): per-producer counts are materialized once per queried entry (one
  /// DFS), updated incrementally afterwards, and the variance double is
  /// cached until the subtree changes.  Bit-identical to the naive
  /// DFS + frequency_variance path.  Changing `n_nodes` between calls
  /// flushes the statistics (cheap only if not alternating).
  double subtree_equality_variance(const BlockHash& id,
                                   std::size_t n_nodes) const;

  /// Blocks produced by each of the `n_nodes` consensus nodes within the
  /// subtree rooted at `id` (inclusive).  Producers outside [0, n_nodes) —
  /// e.g. the genesis sentinel — are not counted.  O(subtree) DFS; the
  /// overload reuses the caller's buffer to avoid per-call allocation.
  std::vector<std::uint64_t> subtree_producer_counts(const BlockHash& id,
                                                     std::size_t n_nodes) const;
  void subtree_producer_counts(const BlockHash& id, std::size_t n_nodes,
                               std::vector<std::uint64_t>& out) const;

  /// Deepest height present in the tree.
  std::uint64_t max_height() const { return max_height_; }

  /// Chain of block hashes from genesis (inclusive) to `head` (inclusive).
  std::vector<BlockHash> chain_to(const BlockHash& head) const;

  /// True when `ancestor` lies on the path from genesis to `descendant`
  /// (a block is its own ancestor).  Walks parent indices from `descendant`
  /// down to `ancestor`'s height, so the cost is the height difference, not
  /// the full root path.
  bool is_ancestor(const BlockHash& ancestor, const BlockHash& descendant) const;

  /// Deepest block that is an ancestor of both `a` and `b` (possibly one of
  /// them).  O(height(a) + height(b) - 2·height(lca)) parent-index walk.
  BlockHash lowest_common_ancestor(const BlockHash& a, const BlockHash& b) const;

  /// All leaves (blocks without children).
  std::vector<BlockHash> tips() const;

  std::size_t size() const { return hot_.size(); }
  std::size_t orphan_count() const;

 private:
  static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

  /// GEOST's sufficient statistics for one tracked subtree: exact integer
  /// per-producer counts plus the cached Eq. 1 variance derived from them.
  /// Counts are SPARSE — (producer, count) pairs, unsorted.  A fork
  /// candidate's subtree holds far fewer distinct producers than the
  /// consensus set, and a dense vector costs 8·n_nodes bytes; tracking one
  /// dense vector per candidate per tree made simulator memory grow
  /// O(n² · forks).  The dense layout is materialized into a scratch buffer
  /// only when the variance must actually be recomputed (memo miss), which
  /// is already Θ(n) there.
  struct EqualityStats {
    std::vector<std::pair<NodeId, std::uint32_t>> counts;
    std::uint64_t total = 0;  ///< Σ counts
    double variance = 0.0;    ///< cached Eq. 1 value
    bool variance_valid = false;
    /// 128-bit additive fingerprint of the counts: each increment of
    /// producer p to value c adds hash(p, c) to both halves (different
    /// seeds).  Sums are order-independent, so any two count multisets
    /// reached by any increment interleaving agree iff they are equal (up
    /// to a 2^-128 collision).  Keys the cross-tree variance memo: in a
    /// simulation, thousands of per-node trees converge on identical
    /// subtree counts and would each pay the Θ(n) variance recompute
    /// without it.
    std::uint64_t fp_lo = 0;
    std::uint64_t fp_hi = 0;
    /// hot_ index this slot serves, kNoIndex when the slot is free (on the
    /// equality_free_ list).  Lets the floor advance release dead stats.
    std::uint32_t owner = kNoIndex;

    /// Increment producer `p`, returning its new count.
    std::uint32_t bump(NodeId p) {
      for (auto& [q, c] : counts) {
        if (q == p) return ++c;
      }
      counts.emplace_back(p, 1);
      return 1;
    }
  };

  /// The fields the per-insert propagation walk touches, 32 bytes per entry
  /// in one contiguous array: two entries per cache line, and a fresh
  /// block's ancestors sit at nearby indices (they were inserted recently),
  /// so the walk mostly hits lines that are already resident.
  struct Hot {
    std::uint64_t height = 0;
    std::uint64_t subtree_size = 1;
    std::uint64_t subtree_max_height = 0;
    std::uint32_t parent = kNoIndex;    ///< index of parent; kNoIndex = genesis
    std::uint32_t equality = kNoIndex;  ///< index into equality_pool_
  };

  /// Per-block payload touched only by point queries, kept out of the walk's
  /// way.  Deque storage keeps `children()` references stable across
  /// inserts, as the old node-based map did.
  struct Cold {
    BlockPtr block;
    BlockHash id{};
    BlockHash parent{};
    std::vector<BlockHash> children;
    std::uint64_t receipt_seq = 0;
  };

  std::uint32_t index_of(const BlockHash& id) const;
  /// Append the entry for `block` at index `idx` and link it under `parent`.
  void attach(BlockPtr block, std::uint32_t parent, std::uint32_t idx);
  /// Exact aggregates for entries whose incremental caches were frozen when
  /// the floor passed them: DFS that bottoms out at the first descendant at
  /// or above the floor, whose cache is still exact.
  std::uint64_t cold_subtree_size(std::uint32_t root) const;
  std::uint64_t cold_subtree_max_height(std::uint32_t root) const;
  /// Materialize (or fetch) equality statistics for entry `idx`, flushing
  /// all tracked statistics first if `n_nodes` differs from the tracked
  /// width.
  EqualityStats& equality_stats(std::uint32_t idx, std::size_t n_nodes) const;

  std::unordered_map<BlockHash, std::uint32_t, Hash32Hasher> index_;
  /// Mutable because lazy equality tracking links pool slots from `const`
  /// queries (see the thread-safety note above).
  mutable std::vector<Hot> hot_;
  std::deque<Cold> cold_;
  std::unordered_map<BlockHash, std::vector<BlockPtr>, Hash32Hasher> orphans_;
  BlockHash genesis_hash_{};
  std::uint64_t next_receipt_seq_ = 0;
  std::uint64_t max_height_ = 0;
  /// See set_aggregate_floor().  0 = maintain every entry (the default).
  std::uint64_t aggregate_floor_ = 0;
  BodyLoader body_loader_;
  std::size_t bodies_resident_ = 0;

  /// Tracked equality statistics; Hot::equality indexes into this (deque:
  /// references handed out by equality_stats stay valid across growth).
  /// Slots freed by the floor advance are recycled via equality_free_.
  mutable std::deque<EqualityStats> equality_pool_;
  mutable std::vector<std::uint32_t> equality_free_;
  mutable std::size_t equality_n_nodes_ = 0;
  /// Reusable DFS scratch for materialization / producer-count queries.
  mutable std::vector<std::uint32_t> dfs_scratch_;
  /// Reusable counts buffer for below-the-floor variance recomputes.
  mutable std::vector<std::uint64_t> counts_scratch_;
};

}  // namespace themis::ledger
