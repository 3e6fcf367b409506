// state::ChainState without a node: snapshot restore against full replay,
// the incremental head root against a from-scratch state_root_of, balance
// proofs, and the shared body-replay rule.
#include "state/chain_state.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "state/authstate/snapshot.h"
#include "state/transfer.h"

namespace themis::state {
namespace {

namespace fs = std::filesystem;
using ledger::BlockHash;

constexpr std::size_t kMembers = 4;

std::map<ledger::NodeId, UInt128> genesis() {
  std::map<ledger::NodeId, UInt128> alloc;
  for (std::size_t i = 0; i < kMembers; ++i) {
    alloc[static_cast<ledger::NodeId>(i)] = 1'000'000;
  }
  return alloc;
}

/// A block on `parent` carrying `txs`; `salt` tells sibling blocks apart.
ledger::BlockPtr make_block(const ledger::BlockTree& tree,
                            const BlockHash& parent,
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

/// Grows a block tree through a ChainState the way the node does: every
/// block passes the body check (recording its delta) before it is inserted.
class ChainBuilder {
 public:
  ChainBuilder(ChainState& chain, ledger::BlockTree& tree)
      : chain_(chain), tree_(tree) {}

  /// A block on `parent` with one transfer per member, nonces taken from
  /// the parent's state; `to` picks the recipients.
  BlockHash extend(const BlockHash& parent, ledger::NodeId to,
                   std::uint64_t salt) {
    std::vector<ledger::Transaction> txs;
    const LedgerState& state = chain_.state_at(tree_, parent);
    for (std::size_t i = 0; i < kMembers; ++i) {
      const auto from = static_cast<ledger::NodeId>(i);
      const auto recipient = static_cast<ledger::NodeId>(to + from);
      txs.push_back(make_transfer_tx(from, state.account(from).next_nonce, 0,
                                     Transfer{recipient, 10 + salt % 7, {}}));
    }
    const ledger::BlockPtr block = make_block(tree_, parent, txs, salt);
    EXPECT_TRUE(chain_.replay_body(tree_, *block));
    tree_.insert(block);
    return block->id();
  }

 private:
  ChainState& chain_;
  ledger::BlockTree& tree_;
};

class ChainStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("themis_chain_state_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Append a 20-block chain to the store; returns every block id in order.
  /// Block h pays ids 37h..37h+3, so the state spans 12 pages and each
  /// block dirties page 0 (the senders) and one or two others.
  std::vector<BlockHash> write_chain(ledger::BlockStore& store) {
    ChainState chain(genesis());
    ledger::BlockTree tree;
    ChainBuilder build(chain, tree);
    std::vector<BlockHash> ids;
    BlockHash head = tree.genesis_hash();
    for (std::uint64_t h = 1; h <= 20; ++h) {
      head = build.extend(head, static_cast<ledger::NodeId>(h * 37), h);
      store.append(*tree.block(head));
      ids.push_back(head);
    }
    return ids;
  }

  fs::path dir_;
};

TEST_F(ChainStateTest, SnapshotRestorePlusSuffixEqualsFullReplay) {
  ledger::BlockStore store(dir_ / "blocks.dat");
  const std::vector<BlockHash> ids = write_chain(store);
  const BlockHash head = ids.back();

  ChainState full(genesis());
  const ledger::BlockTree full_tree = full.restore(store);
  EXPECT_FALSE(full.stats().restored_from_snapshot);
  EXPECT_EQ(full.stats().store_replayed, ids.size());

  // The snapshot policy writes at the anchor once the interval has passed.
  ChainState writer(genesis(), dir_ / "state.snap", /*snapshot_interval=*/10);
  const ledger::BlockTree writer_tree = writer.restore(store);
  writer.maybe_snapshot(writer_tree, ids[8], 9, &store);
  EXPECT_EQ(writer.stats().snapshots_written, 0u) << "below the interval";
  writer.maybe_snapshot(writer_tree, ids[11], 12, &store);
  EXPECT_EQ(writer.stats().snapshots_written, 1u);
  EXPECT_EQ(writer.stats().snapshot_height, 12u);

  ChainState restored(genesis(), dir_ / "state.snap");
  const ledger::BlockTree tree = restored.restore(store);
  EXPECT_TRUE(restored.stats().restored_from_snapshot);
  EXPECT_EQ(restored.stats().snapshot_height, 12u);
  EXPECT_EQ(restored.stats().store_replayed, 8u);  // heights 13..20
  // The root at the snapshot block comes from the levels the decode
  // checked, before any suffix block is hashed.
  const LedgerState& at_snapshot = full.state_at(full_tree, ids[11]);
  EXPECT_EQ(restored.root(tree, ids[11]),
            authstate::state_root_of(at_snapshot));
  EXPECT_EQ(restored.state_at(tree, head), full.state_at(full_tree, head));
  const Hash32 root = restored.root(tree, head);
  EXPECT_EQ(root, full.root(full_tree, head));
  EXPECT_EQ(root, authstate::state_root_of(full.state_at(full_tree, head)));

  // Proofs at the head verify for ids on pages the suffix dirtied (the
  // senders' page 0 and block 20's recipients on page 11) and on pages it
  // left as the snapshot wrote them (block 5's recipients on page 2, and an
  // empty slot of block 6's page 3).
  const LedgerState& at_head = full.state_at(full_tree, head);
  for (const ledger::NodeId id : {1u, 740u, 185u, 188u, 186u + 64u}) {
    const ChainState::Proof proof = restored.prove(tree, head, id);
    ASSERT_TRUE(proof.available) << id;
    EXPECT_EQ(proof.state_root, root) << id;
    EXPECT_EQ(proof.account, at_head.account(id)) << id;
    EXPECT_TRUE(authstate::verify_account_proof(root, id, proof.account,
                                                proof.proof))
        << id;
  }
}

TEST_F(ChainStateTest, RestoreFallsBackToFullReplayWhenSnapshotBlockIsMissing) {
  ledger::BlockStore store(dir_ / "blocks.dat");
  const std::vector<BlockHash> ids = write_chain(store);
  authstate::Snapshot snap;
  snap.height = 12;
  snap.block.fill(0x42);  // no such block in the store
  snap.state.fund(7, 5);
  ASSERT_TRUE(authstate::write_snapshot(dir_ / "state.snap", snap));

  ChainState chain(genesis(), dir_ / "state.snap");
  const ledger::BlockTree tree = chain.restore(store);
  EXPECT_FALSE(chain.stats().restored_from_snapshot);
  EXPECT_EQ(chain.stats().store_replayed, ids.size());
  ChainState full(genesis());
  const ledger::BlockTree full_tree = full.restore(store);
  EXPECT_EQ(chain.state_at(tree, ids.back()),
            full.state_at(full_tree, ids.back()));
}

TEST_F(ChainStateTest, HeadRootMatchesStateRootOverRandomHeadMoves) {
  ChainState chain(genesis());
  ledger::BlockTree tree;
  ChainBuilder build(chain, tree);
  // A 150-block main chain plus a 90-block fork off height 20 and short
  // forks every 10 heights: random moves among them are reorgs, single
  // steps and jumps well past the 64-block incremental walk.
  std::vector<BlockHash> blocks;
  std::vector<BlockHash> main{tree.genesis_hash()};
  for (std::uint64_t h = 1; h <= 150; ++h) {
    main.push_back(build.extend(main.back(), 10, h));
    blocks.push_back(main.back());
    if (h % 10 == 0) {
      blocks.push_back(build.extend(main[h - 1], 200, 1000 + h));
    }
  }
  BlockHash fork = main[20];
  for (std::uint64_t i = 0; i < 90; ++i) {
    fork = build.extend(fork, 300, 5000 + i);
    blocks.push_back(fork);
  }

  const auto expect_exact = [&](const BlockHash& head) {
    ASSERT_EQ(chain.root(tree, head),
              authstate::state_root_of(chain.state_at(tree, head)))
        << "head at height " << tree.height(head);
  };
  for (const BlockHash& head : main) expect_exact(head);  // incremental steps
  Rng rng(7);
  for (int move = 0; move < 200; ++move) {
    expect_exact(blocks[rng.next_below(blocks.size())]);
  }
}

TEST_F(ChainStateTest, ProofsVerifyPresentAbsentAndPastTheRange) {
  ChainState chain(genesis());
  ledger::BlockTree tree;
  ChainBuilder build(chain, tree);
  // Recipients 130..133 put the last committed page at index 2.
  const BlockHash head = build.extend(tree.genesis_hash(), 130, 1);
  const Hash32 root = chain.root(tree, head);
  ASSERT_EQ(root, authstate::state_root_of(chain.state_at(tree, head)));

  const ChainState::Proof present = chain.prove(tree, head, 1);
  EXPECT_TRUE(present.available);
  EXPECT_EQ(present.state_root, root);
  EXPECT_NE(present.account, Account{});
  EXPECT_TRUE(authstate::verify_account_proof(root, 1, present.account,
                                              present.proof));

  const ChainState::Proof absent = chain.prove(tree, head, 70);  // page 1
  EXPECT_TRUE(absent.available);
  EXPECT_EQ(absent.account, Account{});
  EXPECT_TRUE(
      authstate::verify_account_proof(root, 70, Account{}, absent.proof));

  const ChainState::Proof past = chain.prove(tree, head, 1000);  // page 15
  EXPECT_FALSE(past.available);
  EXPECT_EQ(past.account, Account{});
  EXPECT_EQ(past.proof.page_count, 3u);
  EXPECT_GE(past.proof.page, past.proof.page_count);
}

TEST_F(ChainStateTest, BodyCheckRejectsDoubleSpendAndRecordsDelta) {
  ChainState chain(genesis());
  ledger::BlockTree tree;
  const BlockHash parent = tree.genesis_hash();
  const ledger::Transaction spend =
      make_transfer_tx(1, 1, 0, Transfer{2, 100, {}});
  const ledger::Transaction respend =
      make_transfer_tx(1, 1, 1, Transfer{3, 100, {}});  // same nonce
  const ledger::BlockPtr good = make_block(tree, parent, {spend}, 1);
  const ledger::BlockPtr bad = make_block(tree, parent, {spend, respend}, 2);

  EXPECT_FALSE(chain.replay_body(tree, *bad));
  EXPECT_FALSE(chain.states().has_delta(bad->id()));
  // One valid-looking 1-unit transfer past the account-id cap would commit
  // 2^26 pages for every later root and proof; the body check refuses it.
  const ledger::BlockPtr far = make_block(
      tree, parent, {make_transfer_tx(1, 1, 2, Transfer{0xFFFFFFFE, 1, {}})}, 3);
  EXPECT_FALSE(chain.replay_body(tree, *far));
  EXPECT_FALSE(chain.states().has_delta(far->id()));
  ASSERT_TRUE(chain.replay_body(tree, *good));
  ASSERT_TRUE(chain.states().has_delta(good->id()));
  tree.insert(good);
  EXPECT_EQ(chain.state_at(tree, good->id()).account(1).next_nonce, 2u);
  EXPECT_EQ(chain.state_at(tree, good->id()).balance(2), 1'000'100u);
}

}  // namespace
}  // namespace themis::state
