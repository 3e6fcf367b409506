// Account-based ledger state ("ledger processing", §VII-A).
//
// Consortium members hold accounts; transfers move balances, and every
// transaction advances its sender's nonce.  Nonce reuse is the on-chain
// definition of a double-spend attempt — the evidence a NodeSetContract
// removal proposal carries (§IV-C).
//
// Balances are 128-bit (common/uint128) with overflow-checked arithmetic:
// a transfer that would wrap a recipient's balance fails with
// TxOutcome::overflow and changes nothing, so the ledger survives realistic
// economic ranges without silent corruption.
//
// StateManager materializes the state at any block by replaying the main
// chain.  Snapshots are cached per block with a bounded LRU (a full snapshot
// of a million-account state is ~10^8 bytes — caching every block would make
// memory O(chain length × accounts)); the common access pattern (validate
// children of the current head, query the head) stays one delta application.
//
// Validation-time delta caching: block validation replays the body once on a
// ScratchState overlay and records the touched-account post-images as a
// StateDelta.  When StateManager later needs that block's snapshot it applies
// the delta — a handful of account writes — instead of decoding and replaying
// every transaction a second time.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/uint128.h"
#include "ledger/blocktree.h"
#include "state/transfer.h"

namespace themis::state {

struct Account {
  UInt128 balance;
  /// Highest transaction nonce seen from this account (0 = none yet).
  std::uint64_t next_nonce = 1;

  bool operator==(const Account&) const = default;
};

enum class TxOutcome {
  applied,          ///< state updated
  data_only,        ///< no transfer payload; nonce advanced
  bad_nonce,        ///< nonce reuse or gap (double-spend evidence!)
  insufficient_funds,
  unknown_recipient,
  overflow,         ///< recipient balance would exceed 2^128 - 1
};

std::string_view to_string(TxOutcome outcome);

/// Post-images of every account a block's body touched, in account order.
/// Applying a delta to the block's parent state yields the block's state.
struct StateDelta {
  std::vector<std::pair<ledger::NodeId, Account>> accounts;
  /// Transactions that applied cleanly (mirrors apply_block's return).
  std::size_t applied = 0;

  bool operator==(const StateDelta&) const = default;
};

class LedgerState {
 public:
  LedgerState() = default;

  /// Credit an account at genesis (consortium funding allocation).
  /// Throws PreconditionError if the credit would overflow the balance.
  void fund(ledger::NodeId account, const UInt128& amount);

  const Account& account(ledger::NodeId id) const;
  const UInt128& balance(ledger::NodeId id) const { return account(id).balance; }
  /// Saturates at UInt128::max() if genesis over-funded past 2^128 - 1.
  UInt128 total_supply() const;

  /// All accounts, keyed by id.  The authstate layer iterates this to page
  /// the state into Merkle leaves and to serialize snapshots.
  const std::map<ledger::NodeId, Account>& accounts() const { return accounts_; }

  /// Overwrite one account verbatim (snapshot restore path).
  void put(ledger::NodeId id, const Account& account) { accounts_[id] = account; }

  /// Append an account whose id exceeds every existing one — the hinted
  /// insertion makes an ascending bulk load (snapshot decode of a
  /// million-account state) amortized O(1) per account instead of O(log n).
  void put_back(ledger::NodeId id, const Account& account) {
    accounts_.emplace_hint(accounts_.end(), id, account);
  }

  /// Apply one transaction.  Strict nonce discipline: the transaction's nonce
  /// must equal the sender's next_nonce.  Failed transactions do not change
  /// any balance (and do not advance the nonce).
  TxOutcome apply(const ledger::Transaction& tx);

  /// Apply every transaction of a block, in order.  Returns the number that
  /// applied cleanly; failures are skipped (they stay visible to auditors via
  /// apply()'s outcome when re-checked individually).
  std::size_t apply_block(const ledger::Block& block);

  /// Overwrite the touched accounts with a recorded delta's post-images —
  /// equivalent to apply_block on the block the delta was recorded from, but
  /// without decoding or replaying any transaction.
  void apply_delta(const StateDelta& delta);

  bool operator==(const LedgerState&) const = default;

 private:
  std::map<ledger::NodeId, Account> accounts_;
};

/// Copy-on-write overlay over a parent snapshot.  Where the old validation
/// path copied the whole account map before replaying a body, a ScratchState
/// starts empty and materializes only the accounts the body actually touches;
/// take_delta() then hands those post-images to StateManager for caching.
///
/// The base snapshot must outlive the scratch (both live under the consensus
/// lock in practice).
class ScratchState {
 public:
  explicit ScratchState(const LedgerState& base) : base_(&base) {}

  /// Overlay view: the touched copy if present, the base account otherwise.
  const Account& account(ledger::NodeId id) const;

  /// Same transition rules and outcomes as LedgerState::apply.
  TxOutcome apply(const ledger::Transaction& tx);

  /// Number of transactions that applied cleanly so far.
  std::size_t applied() const { return applied_; }

  /// Touched-account post-images accumulated so far (consumes the overlay).
  StateDelta take_delta();

 private:
  Account& touch(ledger::NodeId id);

  const LedgerState* base_;
  std::map<ledger::NodeId, Account> overlay_;
  std::size_t applied_ = 0;
};

class StateManager {
 public:
  /// Past this many cached per-block snapshots, the least-recently-used is
  /// evicted and a later query for it falls back to replay from the base.
  static constexpr std::size_t kDefaultMaxCached = 8;

  /// `genesis_allocation` funds accounts before any block executes.
  explicit StateManager(std::map<ledger::NodeId, UInt128> genesis_allocation,
                        std::size_t max_cached = kDefaultMaxCached);

  /// State after executing the main chain from the tree's root to `block`
  /// (inclusive).  Snapshots are cached per block hash (bounded LRU); blocks
  /// with a recorded delta materialize by delta application instead of body
  /// replay.  The returned reference stays valid until the next state_at or
  /// reset_base call.
  const LedgerState& state_at(const ledger::BlockTree& tree,
                              const ledger::BlockHash& block);

  /// Cache the touched-account delta of `block` (recorded by validation).
  /// Keyed by block hash, so deltas for blocks that never join the tree are
  /// merely unused.
  void record_delta(const ledger::BlockHash& block, StateDelta delta);
  bool has_delta(const ledger::BlockHash& block) const {
    return deltas_.contains(block);
  }
  /// The recorded delta for `block`, or nullptr.  The authstate RootCache
  /// uses the touched-account list to re-hash only dirty Merkle pages.
  const StateDelta* delta(const ledger::BlockHash& block) const {
    const auto it = deltas_.find(block);
    return it == deltas_.end() ? nullptr : &it->second;
  }

  /// Replace the base state (snapshot-restore path: the tree is re-rooted at
  /// the snapshot block and `base` is the state *after* executing it).
  /// Clears all cached snapshots, deltas, and the pinned anchor.
  void reset_base(LedgerState base);

  /// Pin the state at `block` so LRU churn cannot evict it (single slot; a
  /// new pin replaces the old).  The snapshot path pins each written anchor,
  /// so the next snapshot replays only the blocks since the previous one
  /// instead of the whole chain.  Throws PreconditionError when `block` sits
  /// below the hard-finalized floor — an anchor below finality would let the
  /// snapshot cursor regress onto a prefix finality already committed.
  void pin_anchor(const ledger::BlockTree& tree, const ledger::BlockHash& block);

  /// Raise the hard-finality floor (monotone; from checkpoint finality).
  /// Anchor pins below this height are rejected from here on.
  void set_finalized_floor(std::uint64_t height) {
    if (height > finalized_floor_) finalized_floor_ = height;
  }
  std::uint64_t finalized_floor() const { return finalized_floor_; }

  /// The state the root of the tree materializes from (genesis allocation,
  /// or the restored snapshot after reset_base).
  const LedgerState& base() const { return base_state_; }

  std::size_t cached_snapshots() const { return cache_.size(); }
  std::size_t cached_deltas() const { return deltas_.size(); }
  std::size_t max_cached() const { return max_cached_; }

 private:
  // Backstop against unbounded growth on very long runs: past this point the
  // delta cache resets and materialization falls back to body replay.
  static constexpr std::size_t kMaxDeltas = 1 << 16;

  struct CacheEntry {
    LedgerState state;
    std::list<ledger::BlockHash>::iterator lru;
  };

  /// Insert (or refresh) `block` in the cache, evicting the LRU entry past
  /// the bound.  Returns the cached state.
  const LedgerState& cache_put(const ledger::BlockHash& block,
                               LedgerState state);
  void cache_touch(CacheEntry& entry);

  LedgerState base_state_;
  std::size_t max_cached_;
  std::unordered_map<ledger::BlockHash, CacheEntry, Hash32Hasher> cache_;
  std::list<ledger::BlockHash> lru_;  // front = most recently used
  std::unordered_map<ledger::BlockHash, StateDelta, Hash32Hasher> deltas_;
  /// Single eviction-proof slot for the snapshot anchor (see pin_anchor).
  std::optional<std::pair<ledger::BlockHash, LedgerState>> pinned_;
  /// Hard-finality floor for anchor pins (see set_finalized_floor).
  std::uint64_t finalized_floor_ = 0;
};

}  // namespace themis::state
