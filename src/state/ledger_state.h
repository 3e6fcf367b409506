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
// Accounts live in copy-on-write pages of 64 ids — the fixed ranges the
// authstate commitment hashes into one Merkle leaf each.  Copying a state
// copies its page table and shares every page; a write clones only the page
// it lands in, and only while another state still shares it.  So a block's
// state costs the pages its body touched, not the whole ledger.
//
// StateManager materializes the state at any block by replaying the main
// chain, caching per-block states in a bounded LRU; the common access
// pattern (validate children of the current head, query the head) stays one
// delta application on a cached parent.  The hard-finalized checkpoint's
// state is kept as a floor: walks from anything above it stop there, and the
// deltas at or below it are dropped as it rises.
//
// Validation-time delta caching: block validation replays the body once on a
// ScratchState overlay and records the touched-account post-images as a
// StateDelta.  When StateManager later needs that block's state it applies
// the delta — a handful of account writes — instead of decoding and replaying
// every transaction a second time.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/uint128.h"
#include "ledger/blocktree.h"
#include "state/transfer.h"

namespace themis::state {

/// Accounts per page: page p holds ids [p*64, (p+1)*64).  A power of two.
inline constexpr std::uint32_t kAccountsPerPage = 64;

/// Ids at or above this cap hold no account: a transfer to one fails as
/// unknown_recipient, a transaction from one as unknown_sender, and a
/// snapshot naming one is refused.  It bounds the page table, and the page
/// span every root and proof hashes, at 65,536 pages.
inline constexpr ledger::NodeId kMaxAccounts = ledger::NodeId{1} << 22;

/// Page index covering account `id`.
constexpr std::uint32_t page_of(ledger::NodeId id) {
  return id / kAccountsPerPage;
}

struct Account {
  UInt128 balance;
  /// Highest transaction nonce seen from this account (0 = none yet).
  std::uint64_t next_nonce = 1;

  bool operator==(const Account&) const = default;
};

/// One page of accounts; slot i holds id page*64 + i.
struct AccountPage {
  std::array<Account, kAccountsPerPage> slots{};
  /// Slots holding a non-default account.
  std::uint32_t live = 0;
};

enum class TxOutcome {
  applied,          ///< state updated
  data_only,        ///< no transfer payload; nonce advanced
  bad_nonce,        ///< nonce reuse or gap (double-spend evidence!)
  insufficient_funds,
  unknown_recipient,
  overflow,         ///< recipient balance would exceed 2^128 - 1
  unknown_sender,   ///< sender id at or above kMaxAccounts
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

  /// Overwrite one account verbatim (snapshot restore path).  Throws
  /// PreconditionError for an id at or above kMaxAccounts.
  void put(ledger::NodeId id, const Account& account);

  /// put() for an ascending bulk load (snapshot decode).
  void put_back(ledger::NodeId id, const Account& account) { put(id, account); }

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

  /// Committed page span: one past the highest page holding a non-default
  /// account, 0 for an empty state.
  std::uint32_t page_count() const {
    return static_cast<std::uint32_t>(pages_.size());
  }
  /// Page `p`, or nullptr when it holds only default accounts.
  const AccountPage* page(std::uint32_t p) const {
    return p < pages_.size() ? pages_[p].get() : nullptr;
  }
  /// Make this state equal to `other` by sharing `other`'s page wherever the
  /// two page tables point at different pages, and return those pages.  A
  /// page neither state wrote since they shared it is skipped, so one block
  /// apart this is the block's dirty pages.  The comparison is exact because
  /// this state keeps its pages alive: a differing pointer cannot be a freed
  /// page's reused address, and a shared page is never written in place.
  std::vector<std::uint32_t> sync_from(const LedgerState& other);

  /// Non-default accounts.
  std::size_t live_accounts() const;
  /// Calls fn(id, account) for every non-default account, ascending.
  template <typename Fn>
  void for_each_account(Fn&& fn) const {
    for (std::uint32_t p = 0; p < page_count(); ++p) {
      if (pages_[p] == nullptr) continue;
      for (std::uint32_t i = 0; i < kAccountsPerPage; ++i) {
        const Account& account = pages_[p]->slots[i];
        if (account != Account{}) fn(p * kAccountsPerPage + i, account);
      }
    }
  }

  /// Same accounts, whichever pages the two states share.
  bool operator==(const LedgerState& other) const;

 private:
  // Invariants: a page is null iff it holds only default accounts, and the
  // last page is non-null.  A page is written in place only while this state
  // is its sole owner; otherwise the write clones it first.
  std::vector<std::shared_ptr<AccountPage>> pages_;
};

/// Overlay over a parent state: starts empty and holds only the accounts a
/// body writes, so replaying a body never writes a page; take_delta() then
/// hands those post-images to StateManager for caching.
///
/// The base state must outlive the scratch (both live under the consensus
/// lock in practice).
class ScratchState {
 public:
  explicit ScratchState(const LedgerState& base) : base_(&base) {}

  /// Overlay view: the touched copy if present, the base account otherwise.
  const Account& account(ledger::NodeId id) const;

  /// Same transition rules and outcomes as LedgerState::apply.
  TxOutcome apply(const ledger::Transaction& tx);

  /// Overlay write (the transition rule's write half).
  void put(ledger::NodeId id, const Account& account) { overlay_[id] = account; }

  /// Number of transactions that applied cleanly so far.
  std::size_t applied() const { return applied_; }

  /// Touched-account post-images accumulated so far (consumes the overlay).
  StateDelta take_delta();

 private:
  const LedgerState* base_;
  std::map<ledger::NodeId, Account> overlay_;
  std::size_t applied_ = 0;
};

/// A replay needed a body the tree can no longer produce.
class BodyUnavailable : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StateManager {
 public:
  /// `genesis_allocation` funds accounts before any block executes.
  explicit StateManager(std::map<ledger::NodeId, UInt128> genesis_allocation);

  /// State after executing the main chain from the tree's root to `block`
  /// (inclusive).  States are cached per block hash (bounded LRU); blocks
  /// with a recorded delta materialize by delta application instead of body
  /// replay, which reads bodies through BlockTree::body.  The returned
  /// reference stays valid until the next state_at, set_finalized_floor or
  /// reset_base call.  Throws BodyUnavailable when a body the replay needs
  /// is gone (a released body whose store record was pruned).
  const LedgerState& state_at(const ledger::BlockTree& tree,
                              const ledger::BlockHash& block);

  /// Cache the touched-account delta of `block` (recorded by validation).
  /// Keyed by block hash, so deltas for blocks that never join the tree are
  /// merely unused.
  void record_delta(const ledger::BlockHash& block, StateDelta delta);
  bool has_delta(const ledger::BlockHash& block) const {
    return deltas_.contains(block);
  }

  /// Replace the base state (snapshot-restore path: the tree is re-rooted at
  /// the snapshot block and `base` is the state *after* executing it).
  /// Clears all cached states, deltas and the floor.
  void reset_base(LedgerState base);

  /// Raise the hard-finality floor to checkpoint `block` (monotone: a lower
  /// checkpoint is ignored).  Keeps its state, where walks from above stop
  /// (so LRU churn never costs a replay from below it), and drops the deltas
  /// at or below its height (and of blocks the tree does not hold).
  void set_finalized_floor(const ledger::BlockTree& tree,
                           const ledger::BlockHash& block);
  std::uint64_t finalized_floor() const { return finalized_floor_; }
  /// The floor's checkpoint block and the state after it; nullptr until a
  /// floor is set (and again after reset_base).
  const std::pair<ledger::BlockHash, LedgerState>* floor() const {
    return floor_.has_value() ? &*floor_ : nullptr;
  }

  /// The state the root of the tree materializes from (genesis allocation,
  /// or the restored snapshot after reset_base).
  const LedgerState& base() const { return base_state_; }

  std::size_t cached_deltas() const { return deltas_.size(); }

 private:
  /// Past this many cached per-block states, the least-recently-used is
  /// evicted and a later query for it replays from the nearest held
  /// ancestor (or the base).
  static constexpr std::size_t kMaxCached = 8;

  struct CacheEntry {
    LedgerState state;
    std::list<ledger::BlockHash>::iterator lru;
  };

  /// Insert (or refresh) `block` in the cache, evicting the LRU entry past
  /// the bound.  Returns the cached state.
  const LedgerState& cache_put(const ledger::BlockHash& block,
                               LedgerState state);
  void cache_touch(CacheEntry& entry);
  /// The state held for `block` outside the cache (the floor's).
  const LedgerState* held(const ledger::BlockHash& block) const;

  LedgerState base_state_;
  std::unordered_map<ledger::BlockHash, CacheEntry, Hash32Hasher> cache_;
  std::list<ledger::BlockHash> lru_;  // front = most recently used
  std::unordered_map<ledger::BlockHash, StateDelta, Hash32Hasher> deltas_;
  /// The finalized checkpoint and its state (see set_finalized_floor).
  std::optional<std::pair<ledger::BlockHash, LedgerState>> floor_;
  std::uint64_t finalized_floor_ = 0;
};

}  // namespace themis::state
