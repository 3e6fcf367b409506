// PoolReconciler: pool <-> main-chain consistency across head changes.
//
// The reorg scenarios here are the heart of the transaction pipeline's
// correctness claim: across any head move no transaction is lost (abandoned
// txs re-enter the pool with a valid re-signed credential) and none is
// double-applied (txs whose nonce the new chain consumed are purged).
#include "state/pool_reconciler.h"

#include <gtest/gtest.h>

#include "crypto/schnorr.h"
#include "ledger/txpool.h"
#include "state/transfer.h"
#include "tree_builder.h"

namespace themis::state {
namespace {

using test::TreeBuilder;

ledger::Transaction transfer(ledger::NodeId from, std::uint64_t nonce,
                             ledger::NodeId to, std::uint64_t amount) {
  return make_transfer_tx(from, nonce, 0, Transfer{to, amount, {}});
}

/// Ledger state after replaying the main chain ending at `head` over a fixed
/// two-account genesis allocation (the sequential oracle for these tests).
LedgerState state_at(const ledger::BlockTree& tree,
                     const ledger::BlockHash& head) {
  LedgerState st;
  st.fund(0, 1000);
  st.fund(1, 1000);
  for (const ledger::BlockHash& hash : tree.chain_to(head)) {
    st.apply_block(*tree.block(hash));
  }
  return st;
}

TEST(PoolReconciler, ConfirmRemovesFromPool) {
  TreeBuilder b;
  ledger::TxPool pool;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  pool.add(ledger::sign_transaction(t1));

  b.add("a1", "g", 0, 1.0, -1, {t1});
  const auto stats = rec.on_head_change(b.tree(), b.hash("g"), b.hash("a1"),
                                        pool, state_at(b.tree(), b.hash("a1")));
  EXPECT_EQ(stats.confirmed, 1u);
  EXPECT_EQ(stats.returned, 0u);
  EXPECT_EQ(stats.purged, 0u);
  EXPECT_FALSE(pool.contains(t1.id()));
  EXPECT_EQ(rec.block_of(b.tree(), t1.id()), b.hash("a1"));
}

TEST(PoolReconciler, ReorgReturnsUnconfirmedTxSigned) {
  TreeBuilder b;
  ledger::TxPool pool;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  const ledger::Transaction t2 = transfer(0, 2, 1, 20);
  pool.add(ledger::sign_transaction(t1));
  pool.add(ledger::sign_transaction(t2));

  // a-branch confirms T1 then T2.
  b.add("a1", "g", 0, 1.0, -1, {t1});
  b.add("a2", "a1", 1, 1.0, -1, {t2});
  rec.on_head_change(b.tree(), b.hash("g"), b.hash("a1"), pool,
                     state_at(b.tree(), b.hash("a1")));
  rec.on_head_change(b.tree(), b.hash("a1"), b.hash("a2"), pool,
                     state_at(b.tree(), b.hash("a2")));
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(rec.indexed(), 2u);

  // A heavier b-branch re-confirms only T1: T2 must return to the pool with
  // a verifiable (deterministically re-signed) admission credential.
  b.add("b1", "g", 2, 1.0, -1, {t1});
  b.add("b2", "b1", 2);
  b.add("b3", "b2", 2);
  const auto stats = rec.on_head_change(b.tree(), b.hash("a2"), b.hash("b3"),
                                        pool, state_at(b.tree(), b.hash("b3")));
  EXPECT_EQ(stats.returned, 1u);
  EXPECT_EQ(stats.purged, 0u);
  EXPECT_TRUE(pool.contains(t2.id()));
  EXPECT_FALSE(pool.contains(t1.id()));
  EXPECT_EQ(rec.block_of(b.tree(), t1.id()), b.hash("b1"));
  EXPECT_EQ(rec.block_of(b.tree(), t2.id()), std::nullopt);
  EXPECT_EQ(pool.size(), 1u);  // exactly once: not lost, not duplicated

  const auto returned = pool.get(t2.id());
  ASSERT_TRUE(returned.has_value());
  EXPECT_TRUE(returned->verify(crypto::Keypair::from_node_id(0).public_key()));
}

TEST(PoolReconciler, ReorgPurgesConsumedNonce) {
  TreeBuilder b;
  ledger::TxPool pool;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  const ledger::Transaction t2 = transfer(0, 2, 1, 20);
  // A conflicting spend of nonce 2 confirmed on the winning branch (small
  // enough to apply: sender 0 starts with 1000 and already sent 10).
  const ledger::Transaction t2_alt = transfer(0, 2, 1, 50);

  b.add("a1", "g", 0, 1.0, -1, {t1, t2});
  rec.on_head_change(b.tree(), b.hash("g"), b.hash("a1"), pool,
                     state_at(b.tree(), b.hash("a1")));

  b.add("b1", "g", 1, 1.0, -1, {t1, t2_alt});
  b.add("b2", "b1", 1);
  const auto stats = rec.on_head_change(b.tree(), b.hash("a1"), b.hash("b2"),
                                        pool, state_at(b.tree(), b.hash("b2")));
  // T2's nonce was consumed by T2_alt on the new chain: it must NOT return
  // (returning it would stage a double-spend of nonce 2).
  EXPECT_EQ(stats.purged, 1u);
  EXPECT_EQ(stats.returned, 0u);
  EXPECT_FALSE(pool.contains(t2.id()));
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(rec.block_of(b.tree(), t2_alt.id()), b.hash("b1"));
}

TEST(PoolReconciler, PurgesStalePendingOnAdvance) {
  TreeBuilder b;
  ledger::TxPool pool;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  // A competing pending spend of the same nonce (never mined).
  const ledger::Transaction t1_alt = transfer(0, 1, 1, 777);
  pool.add(ledger::sign_transaction(t1_alt));

  b.add("a1", "g", 0, 1.0, -1, {t1});
  const auto stats = rec.on_head_change(b.tree(), b.hash("g"), b.hash("a1"),
                                        pool, state_at(b.tree(), b.hash("a1")));
  // Nonce 1 is consumed on the main chain; the pending rival is dead weight.
  EXPECT_EQ(stats.purged, 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(PoolReconciler, RebuildIndexesWholeChain) {
  TreeBuilder b;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  const ledger::Transaction t2 = transfer(1, 1, 0, 5);
  b.add("a1", "g", 0, 1.0, -1, {t1});
  b.add("a2", "a1", 1, 1.0, -1, {t2});

  rec.rebuild(b.tree(), b.hash("a2"));
  EXPECT_EQ(rec.indexed(), 2u);
  EXPECT_EQ(rec.block_of(b.tree(), t1.id()), b.hash("a1"));
  EXPECT_EQ(rec.block_of(b.tree(), t2.id()), b.hash("a2"));
  EXPECT_EQ(rec.block_of(b.tree(), transfer(0, 9, 1, 1).id()), std::nullopt);
}

TEST(PoolReconciler, TotalsAccumulateAcrossCalls) {
  TreeBuilder b;
  ledger::TxPool pool;
  PoolReconciler rec;

  const ledger::Transaction t1 = transfer(0, 1, 1, 10);
  const ledger::Transaction t2 = transfer(0, 2, 1, 20);
  pool.add(ledger::sign_transaction(t1));
  pool.add(ledger::sign_transaction(t2));

  b.add("a1", "g", 0, 1.0, -1, {t1});
  b.add("a2", "a1", 0, 1.0, -1, {t2});
  rec.on_head_change(b.tree(), b.hash("g"), b.hash("a1"), pool,
                     state_at(b.tree(), b.hash("a1")));
  rec.on_head_change(b.tree(), b.hash("a1"), b.hash("a2"), pool,
                     state_at(b.tree(), b.hash("a2")));
  EXPECT_EQ(rec.totals().confirmed, 2u);

  b.add("b1", "g", 1);
  b.add("b2", "b1", 1);
  b.add("b3", "b2", 1);
  rec.on_head_change(b.tree(), b.hash("a2"), b.hash("b3"), pool,
                     state_at(b.tree(), b.hash("b3")));
  // Both transactions fell off the chain and returned to the pool.
  EXPECT_EQ(rec.totals().returned, 2u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(rec.indexed(), 0u);
}

}  // namespace
}  // namespace themis::state
