#include "state/pool_reconciler.h"

#include <vector>

#include "common/check.h"

namespace themis::state {

namespace {

/// Hashes from `descendant` down to `ancestor`, exclusive of `ancestor`,
/// newest first.
std::vector<ledger::BlockHash> path_down_to(const ledger::BlockTree& tree,
                                            const ledger::BlockHash& descendant,
                                            const ledger::BlockHash& ancestor) {
  std::vector<ledger::BlockHash> out;
  ledger::BlockHash cursor = descendant;
  while (cursor != ancestor) {
    out.push_back(cursor);
    const auto parent = tree.parent(cursor);
    if (!parent.has_value()) break;  // hit genesis
    cursor = *parent;
  }
  return out;
}

/// `hash`'s block with its body, resident or read back through the tree's
/// loader.  Only a pruned record under the finalized chain can be missing,
/// and the reconciler never revisits that chain once bodies are released.
ledger::BlockPtr body_of(const ledger::BlockTree& tree,
                         const ledger::BlockHash& hash) {
  ledger::BlockPtr body = tree.body(hash);
  ensures(body != nullptr, "reconciled block has no body");
  return body;
}

}  // namespace

PoolReconciler::Stats PoolReconciler::on_head_change(
    const ledger::BlockTree& tree, const ledger::BlockHash& old_head,
    const ledger::BlockHash& new_head, ledger::TxPool& pool,
    const LedgerState& new_state) {
  Stats stats;
  const ledger::BlockHash fork =
      tree.lowest_common_ancestor(old_head, new_head);

  // 1. Un-confirm the abandoned branch (old_head .. fork], collecting its
  //    transactions as candidates to return to the pool.  Blocks on the
  //    hard-finalized chain are immutable: their confirmations stand no
  //    matter what head pair the caller drove.
  std::vector<ledger::Transaction> abandoned;
  for (const ledger::BlockHash& hash : path_down_to(tree, old_head, fork)) {
    if (finalized_height_ > 0 && tree.height(hash) <= finalized_height_ &&
        tree.contains(finalized_block_) &&
        tree.is_ancestor(hash, finalized_block_)) {
      continue;
    }
    for (const ledger::Transaction& tx : body_of(tree, hash)->transactions()) {
      confirmed_in_.erase(tx.id());
      abandoned.push_back(tx);
    }
  }

  // 2. Confirm the new branch (fork .. new_head]: index every transaction
  //    and drop it from the pool.
  std::vector<ledger::TxId> confirmed_ids;
  for (const ledger::BlockHash& hash : path_down_to(tree, new_head, fork)) {
    const std::uint32_t position = tree.position(hash);
    for (const ledger::Transaction& tx : body_of(tree, hash)->transactions()) {
      confirmed_in_[tx.id()] = position;
      confirmed_ids.push_back(tx.id());
      ++stats.confirmed;
      if (confirm_hook_) confirm_hook_(tx.id());
    }
  }
  if (!confirmed_ids.empty()) pool.remove(confirmed_ids);

  // 3. Return abandoned transactions that the new branch did not re-confirm
  //    and that can still apply (nonce not yet consumed at the new head).
  //    The admission signature is recomputed — deterministic keys and nonces
  //    make it bit-identical to the one verified at first admission.
  for (ledger::Transaction& tx : abandoned) {
    if (confirmed_in_.contains(tx.id())) continue;  // re-confirmed on new side
    if (tx.nonce() < new_state.account(tx.sender()).next_nonce) {
      ++stats.purged;  // a conflicting tx with this nonce already applied
      continue;
    }
    if (pool.add(ledger::sign_transaction(std::move(tx)))) ++stats.returned;
  }

  // 4. Purge pool-wide: any pending transaction whose nonce the new main
  //    chain has consumed can never become valid again.
  stats.purged += pool.purge([&new_state](const ledger::Transaction& tx) {
    return tx.nonce() < new_state.account(tx.sender()).next_nonce;
  });

  totals_.confirmed += stats.confirmed;
  totals_.returned += stats.returned;
  totals_.purged += stats.purged;
  return stats;
}

void PoolReconciler::rebuild(const ledger::BlockTree& tree,
                             const ledger::BlockHash& head) {
  confirmed_in_.clear();
  for (const ledger::BlockHash& hash : tree.chain_to(head)) {
    const std::uint32_t position = tree.position(hash);
    for (const ledger::Transaction& tx : body_of(tree, hash)->transactions()) {
      confirmed_in_[tx.id()] = position;
    }
  }
}

std::optional<ledger::BlockHash> PoolReconciler::block_of(
    const ledger::BlockTree& tree, const ledger::TxId& id) const {
  const auto it = confirmed_in_.find(id);
  if (it == confirmed_in_.end()) return std::nullopt;
  return tree.id_at(it->second);
}

}  // namespace themis::state
