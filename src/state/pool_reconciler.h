// Transaction-pool <-> main-chain reconciliation across head changes.
//
// The pool and the chain each hold half the transaction lifecycle:
//
//   submit -> pool -> (mined into a block) -> confirmed on the main chain
//                 ^                                     |
//                 +--------- reorg abandons the block --+
//
// PoolReconciler owns the confirmed-transaction index (tx id -> containing
// main-chain block, as the block's 4-byte BlockTree::position) and keeps it —
// and the pool — consistent when fork choice moves the head:
//
//   * blocks that joined the main chain confirm their transactions: they are
//     indexed and removed from the pool;
//   * blocks abandoned by a reorg un-confirm theirs: any transaction not
//     re-confirmed on the new branch RE-ENTERS the pool (no transaction is
//     lost), with its admission signature recomputed from the deterministic
//     consortium key (bit-identical to the original, see SignedTransaction);
//   * transactions whose nonce the new main chain has already consumed can
//     never apply again and are dropped from the pool (no transaction is
//     double-applied or left to rot).
//
// The reconciler is NOT thread-safe on its own; the consensus node drives it
// under its consensus lock, which also orders it against fork choice.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "ledger/blocktree.h"
#include "ledger/txpool.h"
#include "state/ledger_state.h"

namespace themis::state {

class PoolReconciler {
 public:
  struct Stats {
    std::uint64_t confirmed = 0;  ///< txs newly confirmed on the main chain
    std::uint64_t returned = 0;   ///< abandoned-branch txs re-added to the pool
    std::uint64_t purged = 0;     ///< pool txs dropped as permanently stale
  };

  /// Incorporate a head move `old_head` -> `new_head` (both in `tree`).
  /// `new_state` is the ledger state at `new_head`; it drives the staleness
  /// purge.  Returns per-call deltas (also accumulated into totals()).
  Stats on_head_change(const ledger::BlockTree& tree,
                       const ledger::BlockHash& old_head,
                       const ledger::BlockHash& new_head,
                       ledger::TxPool& pool, const LedgerState& new_state);

  /// Rebuild the index from scratch for the chain ending at `head` (after a
  /// block-store replay at startup).
  void rebuild(const ledger::BlockTree& tree, const ledger::BlockHash& head);

  /// Invoked for every transaction newly confirmed by on_head_change (after
  /// the index insert, before the pool removal), under the caller's lock —
  /// the live node stamps TxStage::confirmed here.  One hook; set before use.
  void set_confirm_hook(std::function<void(const ledger::TxId&)> hook) {
    confirm_hook_ = std::move(hook);
  }

  /// True when `id` is confirmed on the main chain (memory only).
  bool confirmed(const ledger::TxId& id) const {
    return confirmed_in_.contains(id);
  }
  /// Main-chain block containing `id`, if the transaction is confirmed;
  /// `tree` is the one the index was built over.
  std::optional<ledger::BlockHash> block_of(const ledger::BlockTree& tree,
                                            const ledger::TxId& id) const;

  /// Raise the hard-finality floor (monotone; from checkpoint finality).
  /// Confirmations in blocks on the finalized chain — ancestors (inclusive)
  /// of the certified checkpoint — are immutable: a head change can never
  /// un-confirm them.  HeadTracker already refuses reorgs that diverge below
  /// finality, so this is defense in depth; note a forced finality switch
  /// still un-confirms an abandoned heavier branch correctly, because its
  /// blocks are not ancestors of the certified checkpoint whatever their
  /// heights.
  void set_finalized(std::uint64_t height, const ledger::BlockHash& block) {
    if (height > finalized_height_) {
      finalized_height_ = height;
      finalized_block_ = block;
    }
  }
  std::uint64_t finalized_height() const { return finalized_height_; }

  std::size_t indexed() const { return confirmed_in_.size(); }
  const Stats& totals() const { return totals_; }

 private:
  /// tx id -> BlockTree::position of the confirming block.
  std::unordered_map<ledger::TxId, std::uint32_t, Hash32Hasher> confirmed_in_;
  Stats totals_;
  std::uint64_t finalized_height_ = 0;
  ledger::BlockHash finalized_block_{};
  std::function<void(const ledger::TxId&)> confirm_hook_;
};

}  // namespace themis::state
