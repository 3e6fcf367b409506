// The account-state half of a live node (§III: "commit the resulting account
// state"): the StateManager, the replay rule block validation and the miner
// share, the incrementally maintained head state root, balance proofs read
// off its stored Merkle levels, and the snapshot policy (restore at start,
// then write and prune as the certified checkpoint floor advances).
//
// P2pNode calls it only under its consensus mutex; bench/state_scale drives
// the same restore() and prove().  Not thread safe.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <vector>

#include "common/uint128.h"
#include "ledger/block_store.h"
#include "ledger/blocktree.h"
#include "ledger/txpool.h"
#include "state/authstate/merkle_state.h"
#include "state/ledger_state.h"

namespace themis::state {

class ChainState {
 public:
  /// Without `snapshot_path` no snapshot is read or written; with interval 0
  /// one is read by restore() but never written.
  explicit ChainState(std::map<ledger::NodeId, UInt128> genesis_allocation,
                      std::filesystem::path snapshot_path = {},
                      std::uint64_t snapshot_interval = 0, bool prune = false);

  struct Stats {
    std::uint64_t store_replayed = 0;     ///< blocks replayed by restore()
    bool restored_from_snapshot = false;  ///< restore() loaded a snapshot
    std::uint64_t snapshot_height = 0;    ///< latest snapshot written or loaded
    std::uint64_t snapshots_written = 0;
    std::uint64_t blocks_pruned = 0;      ///< store records dropped by pruning
  };
  const Stats& stats() const { return stats_; }
  /// Read-only view of the cached states and recorded deltas.
  const StateManager& states() const { return states_; }

  /// The tree held in `store`, rooted at the snapshot block with the
  /// snapshot state as base when a verified snapshot's block is stored (only
  /// the suffix is replayed); any snapshot defect means a full replay.  A
  /// restored snapshot also seeds root(): the Merkle levels its decode
  /// checked stand for the snapshot block.
  ledger::BlockTree restore(const ledger::BlockStore& store);

  const LedgerState& state_at(const ledger::BlockTree& tree,
                              const ledger::BlockHash& block) {
    return states_.state_at(tree, block);
  }

  /// The body check: every transaction applies cleanly, in order, on the
  /// parent state (else a double-spend); records the touched-account delta.
  /// Fails when the parent state needs a body that is gone.
  bool replay_body(const ledger::BlockTree& tree, const ledger::Block& block);

  /// The miner's body on `parent`: up to `max_txs` pool transactions that
  /// pass the same rule in order, so a sender's nonce chain fits one block.
  std::vector<ledger::Transaction> select_body(const ledger::BlockTree& tree,
                                               const ledger::BlockHash& parent,
                                               const ledger::TxPool& pool,
                                               std::size_t max_txs);

  /// Merkle state root at `head`: re-hashes only the pages whose page-table
  /// entries differ from the state it last hashed — one block's dirty pages
  /// on a step, both branches' on a reorg.
  const Hash32& root(const ledger::BlockTree& tree,
                     const ledger::BlockHash& head);

  struct Proof {
    bool available = false;  ///< false when the id lies past the committed range
    Account account;         ///< claimed state the proof pins down
    authstate::AccountProof proof;
    Hash32 state_root{};
  };
  /// `id`'s account at `head`, proven against root(tree, head): one page
  /// encode plus an O(log P) path read.
  Proof prove(const ledger::BlockTree& tree, const ledger::BlockHash& head,
              ledger::NodeId id);

  /// Checkpoint finality reached `block`: its state becomes the floor walks
  /// stop at.
  void set_finalized_floor(const ledger::BlockTree& tree,
                           const ledger::BlockHash& block) {
    states_.set_finalized_floor(tree, block);
  }

  /// Once the finalized floor is an interval past the last snapshot: write
  /// the floor's state and, with pruning, drop `store` records below it.
  /// Only a certified block is ever snapshotted, so a restart re-roots the
  /// tree at a block no fork choice can abandon; without a floor, nothing is
  /// written.
  void maybe_snapshot(ledger::BlockStore* store);

 private:
  StateManager states_;
  const std::filesystem::path snapshot_path_;
  const std::uint64_t snapshot_interval_;
  const bool prune_;
  Stats stats_;

  authstate::RootCache root_cache_;
  /// The state root_cache_ last hashed, kept in step with sync_from, and
  /// its block.
  LedgerState hashed_;
  std::optional<ledger::BlockHash> root_head_;
};

}  // namespace themis::state
