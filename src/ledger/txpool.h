// Transaction pool.
//
// Nodes pick transactions "from the transaction pool upon its preferences"
// (§III) when building a candidate block.  This pool keeps one id index, a
// per-sender nonce-ordered chain and a global arrival sequence, so the
// default preference is: senders interleaved by arrival, each sender's
// transactions in nonce order (the only order in which they can apply under
// the strict-nonce ledger rules).  Entries are deduplicated by id and the
// oldest entry is dropped once a capacity limit is hit.
//
// Entries are SignedTransactions: the pool is the hand-off point between the
// client-facing admission path (RPC / p2p relay, which verified the
// signature) and the miner (which only needs the bare transactions), and the
// relay must be able to re-serve the admission credential to peers that
// request the transaction.
//
// Block selection is nonce-aware: select() walks each sender's chain in
// nonce order and merges senders by arrival priority.  "Priority" is arrival
// seq today; a fee market would plug in here by ordering the merge heap on
// fee-per-byte instead (transactions carry no fee field yet — see DESIGN.md
// §11).
//
// Not thread safe; callers serialize access (P2pNode touches its pool only
// under its consensus mutex, the same hold that covers ChainState and the
// PoolReconciler).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/transaction.h"
#include "obs/live/registry.h"  // header-only Counter; no obs link needed

namespace themis::ledger {

class TxPool {
 public:
  explicit TxPool(std::size_t capacity = 1 << 20);

  /// Attach live counters bumped on every successful insert / capacity
  /// eviction (null = not tracked).  The counters must outlive the pool.
  void set_live_counters(obs::live::Counter* added,
                         obs::live::Counter* evicted) {
    added_counter_ = added;
    evicted_counter_ = evicted;
  }

  /// Insert if not already known; returns false for duplicates.
  /// At capacity, the oldest pending transaction is evicted first.
  bool add(SignedTransaction stx);

  bool contains(const TxId& id) const;
  std::optional<SignedTransaction> get(const TxId& id) const;
  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// Peek at up to `max_count` transactions without removing them (used to
  /// build a candidate block; removal happens on confirmation).  Candidates
  /// come out in per-sender nonce order, senders merged by arrival priority.
  /// `admit` filters each candidate — callers pass a predicate that replays
  /// the transaction against a scratch view of the current ledger state, so
  /// no-longer-valid transactions (spent nonces, drained balances) are
  /// skipped.  An empty predicate admits everything.
  std::vector<Transaction> select(
      std::size_t max_count,
      const std::function<bool(const Transaction&)>& admit = {}) const;

  /// Remove every listed id (transactions confirmed in a main-chain block).
  void remove(const std::vector<TxId>& ids);

  /// Drop every transaction matching `stale` (e.g. nonce already consumed on
  /// the new main chain after a head change); returns how many were dropped.
  std::size_t purge(const std::function<bool(const Transaction&)>& stale);

  /// Pending ids in arrival (FIFO) order, capped at `max_count` (pool
  /// announcement to a freshly connected peer).
  std::vector<TxId> ids(std::size_t max_count) const;

  /// Smallest nonce >= `state_next` not already pending from `sender`.
  /// O(sender's chain).
  std::uint64_t next_nonce_hint(NodeId sender, std::uint64_t state_next) const;

 private:
  struct Entry {
    SignedTransaction stx;
    std::uint64_t seq = 0;  // arrival order
  };
  using ById = std::unordered_map<TxId, Entry, Hash32Hasher>;

  /// Erase one entry from every index; returns the next id-index iterator.
  ById::iterator erase(ById::iterator it);

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  ById by_id_;
  // Per-sender pending chain in nonce order.  A multimap because two
  // distinct transactions may reuse a nonce (replacement / reorg returns);
  // selection tries each and the ledger predicate rejects the losers.
  std::unordered_map<NodeId, std::multimap<std::uint64_t, TxId>> by_sender_;
  // Arrival index: seq -> id, for FIFO announcements and oldest-first
  // eviction.
  std::map<std::uint64_t, TxId> by_seq_;
  obs::live::Counter* added_counter_ = nullptr;
  obs::live::Counter* evicted_counter_ = nullptr;
};

}  // namespace themis::ledger
