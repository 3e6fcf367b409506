#include "state/chain_state.h"

#include <memory>
#include <utility>

#include "obs/live/log.h"
#include "state/authstate/snapshot.h"

namespace themis::state {

namespace {

/// The replay rule: a transaction belongs in a block only if it applies
/// cleanly on top of everything before it.
bool applies_cleanly(ScratchState& scratch, const ledger::Transaction& tx) {
  const TxOutcome outcome = scratch.apply(tx);
  return outcome == TxOutcome::applied || outcome == TxOutcome::data_only;
}

}  // namespace

ChainState::ChainState(std::map<ledger::NodeId, UInt128> genesis_allocation,
                       std::filesystem::path snapshot_path,
                       std::uint64_t snapshot_interval, bool prune)
    : states_(std::move(genesis_allocation)),
      snapshot_path_(std::move(snapshot_path)),
      snapshot_interval_(snapshot_interval),
      prune_(prune) {}

ledger::BlockTree ChainState::restore(const ledger::BlockStore& store) {
  ledger::BlockTree tree;
  std::uint64_t replay_from = 0;
  auto snap = snapshot_path_.empty()
                  ? std::nullopt
                  : authstate::read_snapshot(snapshot_path_);
  auto root_block = snap ? store.read_by_id(snap->block) : std::nullopt;
  if (root_block.has_value()) {
    tree = ledger::BlockTree(
        std::make_shared<const ledger::Block>(*std::move(root_block)));
    // The decode hashed the snapshot state to check its root: keep those
    // levels, with the state they hashed (sharing its pages) at the snapshot
    // block, so the first root() re-hashes only what the suffix dirtied.
    root_cache_ = std::move(snap->roots);
    hashed_ = snap->state;
    root_head_ = snap->block;
    states_.reset_base(std::move(snap->state));
    stats_.snapshot_height = snap->height;
    stats_.restored_from_snapshot = true;
    replay_from = snap->height + 1;
  } else if (snap.has_value()) {
    obs::live::log_warn("chain", "snapshot block missing from store; full replay",
                        {{"height", snap->height}});
  }
  stats_.store_replayed = store.replay_into(tree, replay_from);
  if (stats_.restored_from_snapshot) {
    obs::live::log_info(
        "chain", "restored from snapshot",
        {{"height", stats_.snapshot_height},
         {"accounts",
          static_cast<std::uint64_t>(states_.base().live_accounts())},
         {"replayed", stats_.store_replayed}});
  }
  return tree;
}

bool ChainState::replay_body(const ledger::BlockTree& tree,
                             const ledger::Block& block) {
  const LedgerState* parent = nullptr;
  try {
    parent = &states_.state_at(tree, block.header().prev);
  } catch (const BodyUnavailable&) {
    return false;
  }
  ScratchState scratch(*parent);
  for (const ledger::Transaction& tx : block.transactions()) {
    if (!applies_cleanly(scratch, tx)) return false;
  }
  states_.record_delta(block.id(), scratch.take_delta());
  return true;
}

std::vector<ledger::Transaction> ChainState::select_body(
    const ledger::BlockTree& tree, const ledger::BlockHash& parent,
    const ledger::TxPool& pool, std::size_t max_txs) {
  ScratchState scratch(states_.state_at(tree, parent));
  return pool.select(max_txs, [&scratch](const ledger::Transaction& tx) {
    return applies_cleanly(scratch, tx);
  });
}

const Hash32& ChainState::root(const ledger::BlockTree& tree,
                               const ledger::BlockHash& head) {
  if (root_head_ == head) return root_cache_.root();
  const LedgerState& state = states_.state_at(tree, head);
  root_cache_.update_pages(state, hashed_.sync_from(state));
  root_head_ = head;
  return root_cache_.root();
}

ChainState::Proof ChainState::prove(const ledger::BlockTree& tree,
                                    const ledger::BlockHash& head,
                                    ledger::NodeId id) {
  Proof result;
  result.state_root = root(tree, head);
  result.account = hashed_.account(id);
  const std::uint32_t page = authstate::page_of(id);
  result.proof.page = page;
  result.proof.page_count = root_cache_.page_count();
  if (page < result.proof.page_count) {
    result.available = true;
    result.proof.page_bytes = authstate::encode_page(hashed_, page);
    result.proof.steps = root_cache_.prove(page);
  }
  return result;
}

void ChainState::maybe_snapshot(const ledger::BlockTree& tree,
                                const ledger::BlockHash& anchor,
                                std::uint64_t anchor_height,
                                ledger::BlockStore* store) {
  if (snapshot_interval_ == 0 || snapshot_path_.empty()) return;
  if (anchor_height < stats_.snapshot_height + snapshot_interval_) return;
  authstate::Snapshot snap;
  snap.height = anchor_height;
  snap.block = anchor;
  snap.state = states_.state_at(tree, anchor);
  if (!authstate::write_snapshot(snapshot_path_, snap)) {
    obs::live::log_warn("chain", "snapshot write failed",
                        {{"height", anchor_height}});
    return;
  }
  states_.pin_anchor(tree, anchor);
  stats_.snapshot_height = anchor_height;
  ++stats_.snapshots_written;
  obs::live::log_info(
      "chain", "snapshot written",
      {{"height", anchor_height},
       {"accounts", static_cast<std::uint64_t>(snap.state.live_accounts())}});
  if (prune_ && store != nullptr) {
    const std::size_t removed = store->prune_below(anchor_height);
    stats_.blocks_pruned += removed;
    if (removed > 0) {
      obs::live::log_info("chain", "pruned block store",
                          {{"below", anchor_height},
                           {"removed", static_cast<std::uint64_t>(removed)}});
    }
  }
}

}  // namespace themis::state
