#include "ledger/block.h"

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace themis::ledger {
namespace {

BlockHeader sample_header() {
  BlockHeader h;
  h.height = 5;
  h.prev = crypto::sha256(bytes_of("parent"));
  h.producer = 3;
  h.epoch = 1;
  h.difficulty = 1234.5;
  h.timestamp_nanos = 42;
  h.nonce = 777;
  h.tx_count = 2;
  return h;
}

TEST(BlockHeader, EncodeDecodeRoundTrip) {
  const BlockHeader h = sample_header();
  EXPECT_EQ(BlockHeader::decode_unsigned(h.encode_unsigned()), h);
}

TEST(BlockHeader, HashDependsOnEveryField) {
  const BlockHeader base = sample_header();
  const BlockHash base_hash = base.hash();

  auto mutate = [&](auto&& fn) {
    BlockHeader h = base;
    fn(h);
    EXPECT_NE(h.hash(), base_hash);
  };
  mutate([](BlockHeader& h) { h.height += 1; });
  mutate([](BlockHeader& h) { h.prev[0] ^= 1; });
  mutate([](BlockHeader& h) { h.merkle_root[1] ^= 1; });
  mutate([](BlockHeader& h) { h.producer += 1; });
  mutate([](BlockHeader& h) { h.epoch += 1; });
  mutate([](BlockHeader& h) { h.difficulty += 1; });
  mutate([](BlockHeader& h) { h.timestamp_nanos += 1; });
  mutate([](BlockHeader& h) { h.nonce += 1; });
  mutate([](BlockHeader& h) { h.tx_count += 1; });
}

TEST(Block, GenesisIsStable) {
  EXPECT_EQ(Block::genesis().id(), Block::genesis().id());
  EXPECT_EQ(Block::genesis().height(), 0u);
  EXPECT_EQ(Block::genesis().producer(), kNoNode);
  EXPECT_TRUE(Block::genesis().transactions().empty());
}

TEST(Block, IdMatchesHeaderHash) {
  const Block b(sample_header(), crypto::Signature{}, {});
  EXPECT_EQ(b.id(), sample_header().hash());
}

TEST(Block, MerkleRootOverTransactions) {
  const std::vector<Transaction> txs{Transaction(0, 1, 0, {}),
                                     Transaction(0, 2, 0, {})};
  BlockHeader h = sample_header();
  Block b(h, crypto::Signature{}, txs);
  std::vector<Hash32> leaves{txs[0].id(), txs[1].id()};
  EXPECT_EQ(b.compute_merkle_root(), crypto::merkle_root(leaves));
}

TEST(Block, SizeBytesCountsDeclaredTxs) {
  BlockHeader h = sample_header();
  h.tx_count = 100;
  const Block metadata_only(h, crypto::Signature{}, {});
  const Block empty(BlockHeader{}, crypto::Signature{}, {});
  EXPECT_EQ(metadata_only.size_bytes() - empty.size_bytes(),
            100 * kCanonicalTxSize);
}

TEST(Block, EncodeDecodeRoundTripWithBodies) {
  const std::vector<Transaction> txs{Transaction(1, 1, 0, bytes_of("a")),
                                     Transaction(2, 2, 0, bytes_of("b"))};
  BlockHeader h = sample_header();
  h.tx_count = 2;
  const Block b(h, crypto::Signature{}, txs);
  const Block decoded = Block::decode(b.encode());
  EXPECT_EQ(decoded.header(), b.header());
  EXPECT_EQ(decoded.transactions().size(), 2u);
  EXPECT_EQ(decoded.transactions()[0], txs[0]);
  EXPECT_EQ(decoded.id(), b.id());
}

TEST(Block, DecodeRejectsTrailingGarbage) {
  const Block b(sample_header(), crypto::Signature{}, {});
  Bytes raw = b.encode();
  raw.push_back(0);
  EXPECT_THROW(Block::decode(raw), DecodeError);
}

TEST(Block, DecodeRejectsTruncation) {
  const Block b(sample_header(), crypto::Signature{}, {});
  Bytes raw = b.encode();
  raw.pop_back();
  EXPECT_THROW(Block::decode(raw), DecodeError);
}

TEST(Block, DecodeRejectsHostileTxCountWithoutAllocating) {
  // Header + signature + a declared count of 2^32 - 1 transactions and no
  // bodies: the decoder must refuse before reserving for the claim.
  const Block b(sample_header(), crypto::Signature{}, {});
  Bytes raw = b.encode();
  ASSERT_EQ(raw.size(), 180u);
  std::fill(raw.end() - 4, raw.end(), 0xFF);
  EXPECT_THROW(Block::decode(raw), DecodeError);
  // A count one past what the payload holds is refused the same way.
  const Transaction tx(1, 1, 0, bytes_of("a"));
  Bytes one = Block(sample_header(), crypto::Signature{}, {tx}).encode();
  one[one.size() - kCanonicalTxSize - 4] = 2;  // little-endian low byte
  EXPECT_THROW(Block::decode(one), DecodeError);
}

TEST(SatisfiesTarget, BoundaryComparisons) {
  const UInt256 target = UInt256::from_hex("0fff") << 240;
  Hash32 below = (UInt256::from_hex("0ffe") << 240).to_be_bytes();
  Hash32 equal = target.to_be_bytes();
  Hash32 above = (UInt256::from_hex("1000") << 240).to_be_bytes();
  EXPECT_TRUE(satisfies_target(below, target));
  EXPECT_FALSE(satisfies_target(equal, target));  // strictly less
  EXPECT_FALSE(satisfies_target(above, target));
}

}  // namespace
}  // namespace themis::ledger
