// The copy-on-write paged LedgerState, RootCache's stored levels and the
// StateManager against the map-based reference in tests/oracles: the same
// seeded transfers and deltas must give byte-identical roots, page hashes,
// supplies and proofs, however the states share pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "ledger/blocktree.h"
#include "oracles/map_ledger_state.h"
#include "state/authstate/merkle_state.h"
#include "state/authstate/snapshot.h"
#include "state/ledger_state.h"
#include "state/transfer.h"

namespace themis::state {
namespace {

using oracle::MapLedgerState;

/// Ids either side of page boundaries, dense low ids, and rare far jumps
/// that commit runs of empty pages.
ledger::NodeId pick_id(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
    case 1: {
      const auto boundary =
          static_cast<ledger::NodeId>(kAccountsPerPage * (1 + rng.next_below(40)));
      return rng.next_bernoulli(0.5) ? boundary : boundary - 1;
    }
    case 2:
      return static_cast<ledger::NodeId>(6'000 + rng.next_below(6'000));
    default:
      return static_cast<ledger::NodeId>(rng.next_below(300));
  }
}

/// Highest non-default account of the reference, if any.
std::optional<ledger::NodeId> top_account(const MapLedgerState& ref) {
  const auto& accounts = ref.accounts();
  for (auto it = accounts.rbegin(); it != accounts.rend(); ++it) {
    if (it->second != Account{}) return it->first;
  }
  return std::nullopt;
}

/// Roots, page hashes, supply, every account and the proofs for `ids` agree
/// with the reference; the incrementally updated cache equals a rebuild.
void expect_same(const LedgerState& paged, const MapLedgerState& ref,
                 const authstate::RootCache& cache,
                 const std::vector<ledger::NodeId>& ids) {
  const std::vector<Hash32> hashes = oracle::page_hashes_of(ref);
  ASSERT_EQ(authstate::page_hashes_of(paged), hashes);
  ASSERT_EQ(paged.page_count(), oracle::page_count_of(ref));
  ASSERT_EQ(cache.page_hashes(), hashes);
  const Hash32 root = oracle::state_root_of(ref);
  ASSERT_EQ(cache.root(), root);
  ASSERT_EQ(authstate::state_root_of(paged), root);
  ASSERT_EQ(paged.total_supply(), ref.total_supply());
  authstate::RootCache fresh;
  fresh.rebuild(paged);
  ASSERT_EQ(cache, fresh);
  std::size_t live = 0;
  for (const auto& [id, account] : ref.accounts()) {
    ASSERT_EQ(paged.account(id), account) << "account " << id;
    live += account != Account{};
  }
  ASSERT_EQ(paged.live_accounts(), live);
  for (const ledger::NodeId id : ids) {
    // The proof as ChainState::prove assembles it from the stored levels.
    const auto expected = oracle::prove_account(ref, id);
    ASSERT_EQ(expected.has_value(), page_of(id) < paged.page_count()) << id;
    if (!expected.has_value()) continue;
    authstate::AccountProof proof;
    proof.page = page_of(id);
    proof.page_count = cache.page_count();
    proof.page_bytes = authstate::encode_page(paged, proof.page);
    proof.steps = cache.prove(proof.page);
    ASSERT_EQ(proof, *expected) << "proof for " << id;
    ASSERT_TRUE(authstate::verify_account_proof(root, id, ref.account(id), proof))
        << "proof for " << id;
  }
}

TEST(PagedStateDifferential, TransfersAndDeltasMatchTheMapReference) {
  Rng rng(0x5041474553ULL);
  LedgerState paged;
  MapLedgerState ref;
  authstate::RootCache cache;
  for (const ledger::NodeId id : {0u, 1u, 63u, 64u, 127u, 128u}) {
    paged.fund(id, UInt128(1, id));  // past 2^64
    ref.fund(id, UInt128(1, id));
  }
  cache.rebuild(paged);
  // ChainState's path: dirty pages found by page-table pointer, not ids.
  LedgerState synced;
  authstate::RootCache by_pointer;
  std::vector<ledger::NodeId> senders{0, 1, 63, 64, 127, 128};
  // Earlier versions share pages with `paged`; writes must never reach them.
  std::vector<std::pair<LedgerState, Hash32>> versions;

  for (int step = 0; step < 300; ++step) {
    std::vector<ledger::NodeId> touched;
    const std::uint64_t action = rng.next_below(10);
    if (action < 6) {
      // One block's worth of transactions; every outcome class appears.
      const std::uint64_t txs = 1 + rng.next_below(12);
      for (std::uint64_t k = 0; k < txs; ++k) {
        const ledger::NodeId from = senders[rng.next_below(senders.size())];
        std::uint64_t nonce = ref.account(from).next_nonce;
        if (rng.next_bernoulli(0.1)) nonce += 1;  // bad nonce
        ledger::Transaction tx(from, nonce, 0, bytes_of("note"));
        if (!rng.next_bernoulli(0.1)) {
          ledger::NodeId to = pick_id(rng);
          if (rng.next_bernoulli(0.05)) to = ledger::kNoNode;
          if (rng.next_bernoulli(0.05)) to = from;
          UInt128 amount(1 + rng.next_below(1000));
          if (rng.next_bernoulli(0.05)) amount = UInt128::max();  // too much
          tx = make_transfer_tx(from, nonce, 0, Transfer{to, amount, {}});
          if (to != ledger::kNoNode) touched.push_back(to);
          if (to != ledger::kNoNode && to < 300) senders.push_back(to);
        }
        touched.push_back(from);
        ASSERT_EQ(paged.apply(tx), ref.apply(tx)) << "step " << step;
      }
    } else if (action < 9) {
      // A recorded delta: overwrites, far jumps, and top accounts returning
      // to default (shrinking the committed span).
      std::map<ledger::NodeId, Account> post;
      for (std::uint64_t k = rng.next_below(6); k > 0; --k) {
        Account account;
        account.balance = UInt128(rng.next_below(5000));
        account.next_nonce = 1 + rng.next_below(3);
        post[pick_id(rng)] = account;
      }
      if (rng.next_bernoulli(0.6)) {
        if (const auto top = top_account(ref)) post[*top] = Account{};
      }
      StateDelta delta;
      for (const auto& [id, account] : post) {
        delta.accounts.emplace_back(id, account);
        touched.push_back(id);
      }
      paged.apply_delta(delta);
      ref.apply_delta(delta);
    } else {
      versions.emplace_back(paged, oracle::state_root_of(ref));
    }
    cache.update(paged, touched);
    const std::vector<std::uint32_t> moved = synced.sync_from(paged);
    for (const std::uint32_t p : moved) {
      ASSERT_TRUE(p >= paged.page_count() ||
                  std::any_of(touched.begin(), touched.end(),
                              [p](ledger::NodeId id) { return page_of(id) == p; }) ||
                  step == 0)
          << "page " << p << " moved without a write";
    }
    by_pointer.update_pages(paged, moved);
    ASSERT_EQ(synced, paged);
    ASSERT_EQ(by_pointer, cache);

    std::vector<ledger::NodeId> ids = touched;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids.push_back(static_cast<ledger::NodeId>(rng.next_below(13'000)));
    if (const auto top = top_account(ref)) ids.push_back(*top);
    if (step % 50 == 49) {
      // Every committed page through both provers, and a snapshot round trip.
      for (std::uint32_t p = 0; p < paged.page_count(); ++p) {
        const ledger::NodeId id = p * kAccountsPerPage + 7;
        ids.push_back(id);
        ASSERT_EQ(authstate::prove_account(paged, id), oracle::prove_account(ref, id));
      }
      authstate::Snapshot snap;
      snap.height = static_cast<std::uint64_t>(step);
      snap.state = paged;
      const auto back = authstate::decode_snapshot(authstate::encode_snapshot(snap));
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->state, paged);
      EXPECT_EQ(back->state_root, oracle::state_root_of(ref));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(paged, ref, cache, ids))
        << "step " << step;
  }
  ASSERT_GE(versions.size(), 10u);
  for (const auto& [version, root] : versions) {
    EXPECT_EQ(authstate::state_root_of(version), root);
  }
}

/// A block on `parent` carrying `txs`; `salt` tells siblings apart.
ledger::BlockPtr make_block(const ledger::BlockTree& tree,
                            const ledger::BlockHash& parent,
                            std::vector<ledger::Transaction> txs,
                            std::uint64_t salt) {
  std::vector<Hash32> ids;
  for (const ledger::Transaction& tx : txs) ids.push_back(tx.id());
  ledger::BlockHeader header;
  header.height = tree.height(parent) + 1;
  header.prev = parent;
  header.merkle_root = crypto::merkle_root(ids);
  header.nonce = salt;
  header.tx_count = static_cast<std::uint32_t>(txs.size());
  return std::make_shared<const ledger::Block>(header, crypto::Signature{},
                                               std::move(txs));
}

/// The reference state at `block`: the path from genesis replayed body by
/// body on the map state.
MapLedgerState replayed(const ledger::BlockTree& tree, ledger::BlockHash block,
                        const std::map<ledger::NodeId, UInt128>& genesis) {
  std::vector<ledger::BlockHash> path;
  while (block != tree.genesis_hash()) {
    path.push_back(block);
    block = *tree.parent(block);
  }
  MapLedgerState state;
  for (const auto& [id, amount] : genesis) state.fund(id, amount);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    state.apply_block(*tree.block(*it));
  }
  return state;
}

TEST(PagedStateDifferential, StateManagerMatchesReplayOnBranchesAndGaps) {
  const std::map<ledger::NodeId, UInt128> genesis{
      {0, UInt128(1, 0)}, {63, 500'000}, {64, 500'000}, {200, 500'000}};
  Rng rng(0x4D414E41ULL);
  ledger::BlockTree tree;
  // The 8-state LRU holds a fraction of the 121 blocks, so most of the 250
  // random queries below land on evicted blocks and replay a gap.
  StateManager manager(genesis);
  std::vector<ledger::BlockHash> blocks{tree.genesis_hash()};
  for (std::uint64_t salt = 1; salt <= 120; ++salt) {
    // Mostly extend a recent block, sometimes fork off an old one.
    const std::size_t back = rng.next_bernoulli(0.8)
                                 ? rng.next_below(std::min<std::size_t>(3, blocks.size()))
                                 : rng.next_below(blocks.size());
    const ledger::BlockHash parent = blocks[blocks.size() - 1 - back];
    const MapLedgerState at_parent = replayed(tree, parent, genesis);
    std::vector<ledger::Transaction> txs;
    std::uint64_t nonce = at_parent.account(0).next_nonce;
    for (std::uint64_t k = 1 + rng.next_below(6); k > 0; --k) {
      const Transfer transfer{pick_id(rng), UInt128(1 + rng.next_below(50)), {}};
      txs.push_back(make_transfer_tx(0, nonce++, 0, transfer));
    }
    const ledger::BlockPtr block = make_block(tree, parent, std::move(txs), salt);
    if (rng.next_bernoulli(0.7)) {
      // Validation-style: replay on an overlay of the parent, record delta.
      ScratchState scratch(manager.state_at(tree, parent));
      for (const ledger::Transaction& tx : block->transactions()) {
        ASSERT_EQ(scratch.apply(tx), TxOutcome::applied);
      }
      manager.record_delta(block->id(), scratch.take_delta());
    }
    tree.insert(block);
    blocks.push_back(block->id());
  }

  for (int query = 0; query < 250; ++query) {
    const ledger::BlockHash block = blocks[rng.next_below(blocks.size())];
    const MapLedgerState expected = replayed(tree, block, genesis);
    const LedgerState& actual = manager.state_at(tree, block);
    ASSERT_EQ(authstate::page_hashes_of(actual), oracle::page_hashes_of(expected))
        << "query " << query;
    ASSERT_EQ(actual.total_supply(), expected.total_supply());
    for (const auto& [id, account] : expected.accounts()) {
      ASSERT_EQ(actual.account(id), account) << "account " << id;
    }
  }
}

// A live node keeps the finalized checkpoint's state as the floor and drops
// the bodies below it from its tree, reading them back from its store.  A
// branch that forks below the floor then replays those bodies through the
// loader; every state must still match the from-genesis replay.
TEST(PagedStateDifferential,
     StateManagerFloorMatchesReplayBelowReleasedBodies) {
  const std::map<ledger::NodeId, UInt128> genesis{
      {0, UInt128(1, 0)}, {64, 500'000}, {200, 500'000}};
  Rng rng(0x464C4F4FULL);
  ledger::BlockTree kept;  // every body resident: the oracle replays this one
  ledger::BlockTree live;  // releases bodies at or below each checkpoint
  std::map<ledger::BlockHash, ledger::BlockPtr> store;
  live.set_body_loader(
      [&store](const ledger::BlockHash& id) -> ledger::BlockPtr {
        const auto it = store.find(id);
        return it == store.end() ? nullptr : it->second;
      });
  StateManager manager(genesis);
  std::vector<ledger::BlockHash> main{kept.genesis_hash()};
  std::vector<ledger::BlockHash> all{kept.genesis_hash()};
  std::uint64_t salt = 0;

  // A block of random transfers from account 0 on `parent`, body-checked
  // the node's way (overlay of the parent state, delta recorded) or, like a
  // block replayed from the store, inserted without a delta.
  const auto grow = [&](const ledger::BlockHash& parent) {
    std::vector<ledger::Transaction> txs;
    std::uint64_t nonce =
        replayed(kept, parent, genesis).account(0).next_nonce;
    for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
      const Transfer transfer{pick_id(rng), UInt128(1 + rng.next_below(50)),
                              {}};
      txs.push_back(make_transfer_tx(0, nonce++, 0, transfer));
    }
    const ledger::BlockPtr block =
        make_block(kept, parent, std::move(txs), ++salt);
    if (rng.next_bernoulli(0.7)) {
      ScratchState scratch(manager.state_at(live, parent));
      for (const ledger::Transaction& tx : block->transactions()) {
        EXPECT_EQ(scratch.apply(tx), TxOutcome::applied);
      }
      manager.record_delta(block->id(), scratch.take_delta());
    }
    kept.insert(block);
    live.insert(block);
    store[block->id()] = block;
    all.push_back(block->id());
    return block->id();
  };
  const auto expect_matches = [&](const ledger::BlockHash& block) {
    const MapLedgerState expected = replayed(kept, block, genesis);
    const LedgerState& actual = manager.state_at(live, block);
    ASSERT_EQ(authstate::page_hashes_of(actual),
              oracle::page_hashes_of(expected));
    ASSERT_EQ(actual.total_supply(), expected.total_supply());
  };

  std::uint64_t released_to = 0;
  for (int round = 1; round <= 12; ++round) {
    for (int i = 0; i < 8; ++i) main.push_back(grow(main.back()));
    // Certify two below the tip, then release the finalized chain.
    const ledger::BlockHash checkpoint = main[main.size() - 3];
    const std::uint64_t floor = live.height(checkpoint);
    manager.set_finalized_floor(live, checkpoint);
    ASSERT_EQ(manager.finalized_floor(), floor);
    for (std::uint64_t h = floor; h > released_to; --h) {
      live.release_body(main[h]);
    }
    released_to = floor;
    for (const ledger::BlockHash& block : all) {
      if (live.height(block) <= floor) {
        ASSERT_FALSE(manager.has_delta(block)) << "delta at or below the floor";
      }
    }

    // A branch forking below the floor: its body checks replay released
    // bodies (and deltas dropped with them) from the store.
    ledger::BlockHash tip = main[rng.next_below(floor)];
    for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
      tip = grow(tip);
      expect_matches(tip);
    }
    for (int query = 0; query < 10; ++query) {
      expect_matches(all[rng.next_below(all.size())]);
    }
  }
  EXPECT_LT(live.bodies_resident(), kept.bodies_resident());
  EXPECT_LE(manager.cached_deltas(), all.size() - released_to);

  // A released body whose store record is gone cannot be replayed.
  store.erase(main[1]);
  StateManager fresh(genesis);
  EXPECT_THROW(fresh.state_at(live, main[2]), BodyUnavailable);
}

}  // namespace
}  // namespace themis::state
