#include "ledger/txpool.h"

#include <gtest/gtest.h>

#include <map>

#include "common/check.h"

namespace themis::ledger {
namespace {

// Tests pool bare transactions as `{tx}`, a SignedTransaction with a zero
// signature: the pool stores the credential but never checks it.
Transaction tx(std::uint64_t nonce) {
  return Transaction(0, nonce, 0, {});
}

Transaction tx_from(NodeId sender, std::uint64_t nonce) {
  return Transaction(sender, nonce, 0, {});
}

TEST(TxPool, AddAndContains) {
  TxPool pool;
  const Transaction t = tx(1);
  EXPECT_TRUE(pool.add({t}));
  EXPECT_TRUE(pool.contains(t.id()));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, RejectsDuplicates) {
  TxPool pool;
  EXPECT_TRUE(pool.add({tx(1)}));
  EXPECT_FALSE(pool.add({tx(1)}));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, SelectPreservesFifoOrder) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.add({tx(i)});
  const auto selected = pool.select(3);
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].nonce(), 0u);
  EXPECT_EQ(selected[1].nonce(), 1u);
  EXPECT_EQ(selected[2].nonce(), 2u);
}

TEST(TxPool, SelectDoesNotRemove) {
  TxPool pool;
  pool.add({tx(1)});
  pool.select(1);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, SelectMoreThanAvailable) {
  TxPool pool;
  pool.add({tx(1)});
  EXPECT_EQ(pool.select(10).size(), 1u);
}

TEST(TxPool, RemoveConfirmed) {
  TxPool pool;
  const Transaction a = tx(1), b = tx(2);
  pool.add({a});
  pool.add({b});
  pool.remove({a.id()});
  EXPECT_FALSE(pool.contains(a.id()));
  EXPECT_TRUE(pool.contains(b.id()));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, CapacityEvictsOldest) {
  TxPool pool(3);
  for (std::uint64_t i = 0; i < 5; ++i) pool.add({tx(i)});
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_FALSE(pool.contains(tx(0).id()));
  EXPECT_FALSE(pool.contains(tx(1).id()));
  EXPECT_TRUE(pool.contains(tx(4).id()));
}

TEST(TxPool, ZeroCapacityThrows) {
  EXPECT_THROW(TxPool(0), PreconditionError);
}

TEST(TxPool, Clear) {
  TxPool pool;
  pool.add({tx(1)});
  pool.remove(pool.ids(pool.size()));
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.contains(tx(1).id()));
}

TEST(TxPool, SelectPredicateSkipsRejected) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 6; ++i) pool.add({tx(i)});
  // The admit predicate filters mid-queue, so the result is not a FIFO
  // prefix: only even nonces survive.
  const auto selected =
      pool.select(10, [](const Transaction& t) { return t.nonce() % 2 == 0; });
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].nonce(), 0u);
  EXPECT_EQ(selected[1].nonce(), 2u);
  EXPECT_EQ(selected[2].nonce(), 4u);
  EXPECT_EQ(pool.size(), 6u);  // select never removes
}

TEST(TxPool, SelectPredicateRespectsMaxCount) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 6; ++i) pool.add({tx(i)});
  const auto selected =
      pool.select(2, [](const Transaction& t) { return t.nonce() % 2 == 0; });
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].nonce(), 0u);
  EXPECT_EQ(selected[1].nonce(), 2u);
}

TEST(TxPool, PurgeDropsMatching) {
  TxPool pool;
  for (std::uint64_t i = 1; i <= 5; ++i) pool.add({tx(i)});
  const std::size_t dropped =
      pool.purge([](const Transaction& t) { return t.nonce() <= 2; });
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_FALSE(pool.contains(tx(1).id()));
  EXPECT_FALSE(pool.contains(tx(2).id()));
  EXPECT_TRUE(pool.contains(tx(3).id()));
  // Order of survivors is preserved.
  const auto remaining = pool.select(10);
  ASSERT_EQ(remaining.size(), 3u);
  EXPECT_EQ(remaining[0].nonce(), 3u);
}

TEST(TxPool, IdsFifoOrderAndCap) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.add({tx(i)});
  const auto all = pool.ids(100);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0], tx(0).id());
  EXPECT_EQ(all[4], tx(4).id());
  EXPECT_EQ(pool.ids(2).size(), 2u);
  EXPECT_EQ(pool.ids(2)[0], tx(0).id());
}

TEST(TxPool, GetReturnsSignedTransaction) {
  TxPool pool;
  const SignedTransaction stx = sign_transaction(tx_from(1, 7));
  EXPECT_TRUE(pool.add(stx));
  const auto got = pool.get(stx.tx.id());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, stx);
  EXPECT_FALSE(pool.get(tx(99).id()).has_value());
}

TEST(TxPool, NextNonceHintSkipsPending) {
  TxPool pool;
  pool.add({tx_from(3, 5)});
  pool.add({tx_from(3, 6)});
  // state says next is 5, but 5 and 6 are already pending -> hint 7.
  EXPECT_EQ(pool.next_nonce_hint(3, 5), 7u);
}

TEST(TxPool, NextNonceHintFillsGap) {
  TxPool pool;
  pool.add({tx_from(3, 5)});
  pool.add({tx_from(3, 7)});
  // 6 is free: the hint fills the gap rather than jumping past 7.
  EXPECT_EQ(pool.next_nonce_hint(3, 5), 6u);
}

TEST(TxPool, NextNonceHintIgnoresOtherSenders) {
  TxPool pool;
  pool.add({tx_from(9, 5)});
  EXPECT_EQ(pool.next_nonce_hint(3, 5), 5u);
}

// Selection must surface each sender's transactions in nonce order even when
// they arrived out of order — the only order the strict-nonce ledger can
// apply — while different senders interleave by arrival.
TEST(TxPool, SelectOrdersEachSenderByNonce) {
  TxPool pool;
  pool.add({tx_from(1, 2)});
  pool.add({tx_from(1, 0)});
  pool.add({tx_from(1, 1)});
  const auto selected = pool.select(10);
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].nonce(), 0u);
  EXPECT_EQ(selected[1].nonce(), 1u);
  EXPECT_EQ(selected[2].nonce(), 2u);
}

TEST(TxPool, SelectMergesSendersAcrossShards) {
  TxPool pool;
  constexpr int kSenders = 8;
  constexpr std::uint64_t kEach = 4;
  for (std::uint64_t n = 0; n < kEach; ++n) {
    for (int s = 0; s < kSenders; ++s) {
      pool.add({tx_from(static_cast<NodeId>(s), n)});
    }
  }
  const auto selected = pool.select(kSenders * kEach);
  ASSERT_EQ(selected.size(), kSenders * kEach);
  // Every sender's subsequence must be nonce-ordered.
  std::map<NodeId, std::uint64_t> expected_next;
  for (const auto& tx : selected) {
    EXPECT_EQ(tx.nonce(), expected_next[tx.sender()]);
    ++expected_next[tx.sender()];
  }
  for (int s = 0; s < kSenders; ++s) {
    EXPECT_EQ(expected_next[static_cast<NodeId>(s)], kEach);
  }
}

TEST(TxPool, EvictionIsGlobalAcrossShards) {
  TxPool pool(4);
  // Eviction drops the oldest arrival across all senders, not the oldest of
  // the inserting sender's chain.
  for (int s = 0; s < 8; ++s) pool.add({tx_from(static_cast<NodeId>(s), 1)});
  EXPECT_EQ(pool.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_FALSE(pool.contains(tx_from(static_cast<NodeId>(s), 1).id()));
  }
  for (int s = 4; s < 8; ++s) {
    EXPECT_TRUE(pool.contains(tx_from(static_cast<NodeId>(s), 1).id()));
  }
}

}  // namespace
}  // namespace themis::ledger
