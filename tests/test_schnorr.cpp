#include "crypto/schnorr.h"

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace themis::crypto {
namespace {

Hash32 msg_of(std::string_view s) { return sha256(bytes_of(s)); }

TEST(Schnorr, SignVerifyRoundTrip) {
  const Keypair kp = Keypair::from_node_id(1);
  const Hash32 m = msg_of("block header");
  EXPECT_TRUE(verify(kp.public_key(), m, kp.sign(m)));
}

TEST(Schnorr, TamperedMessageRejected) {
  const Keypair kp = Keypair::from_node_id(2);
  const Hash32 m = msg_of("original");
  const Signature sig = kp.sign(m);
  Hash32 tampered = m;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), tampered, sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  const Keypair kp = Keypair::from_node_id(3);
  const Hash32 m = msg_of("m");
  Signature sig = kp.sign(m);
  sig.s[31] ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), m, sig));
  sig = kp.sign(m);
  sig.r[0] ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), m, sig));
}

TEST(Schnorr, WrongKeyRejected) {
  const Keypair a = Keypair::from_node_id(4);
  const Keypair b = Keypair::from_node_id(5);
  const Hash32 m = msg_of("m");
  EXPECT_FALSE(verify(b.public_key(), m, a.sign(m)));
}

TEST(Schnorr, DeterministicSignatures) {
  const Keypair kp = Keypair::from_node_id(6);
  const Hash32 m = msg_of("m");
  EXPECT_EQ(kp.sign(m), kp.sign(m));
}

TEST(Schnorr, DistinctMessagesDistinctSignatures) {
  const Keypair kp = Keypair::from_node_id(7);
  EXPECT_NE(kp.sign(msg_of("a")), kp.sign(msg_of("b")));
}

TEST(Schnorr, SeedDeterminesKeypair) {
  const Hash32 seed = msg_of("seed");
  EXPECT_EQ(Keypair::from_seed(seed).public_key(),
            Keypair::from_seed(seed).public_key());
}

TEST(Schnorr, DistinctNodeIdsDistinctKeys) {
  EXPECT_NE(Keypair::from_node_id(1).public_key(),
            Keypair::from_node_id(2).public_key());
}

TEST(Schnorr, SignatureBytesRoundTrip) {
  const Keypair kp = Keypair::from_node_id(8);
  const Signature sig = kp.sign(msg_of("m"));
  const Bytes raw = sig.to_bytes();
  EXPECT_EQ(raw.size(), kSignatureSize);
  const auto decoded = Signature::from_bytes(raw);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
}

TEST(Schnorr, SignatureFromBadLengthFails) {
  EXPECT_FALSE(Signature::from_bytes(Bytes(63, 0)).has_value());
  EXPECT_FALSE(Signature::from_bytes(Bytes(65, 0)).has_value());
}

TEST(Schnorr, GarbagePublicKeyRejected) {
  // A public key x-coordinate that is not on the curve.
  PublicKey bogus = UInt256(5).to_be_bytes();
  const Keypair kp = Keypair::from_node_id(9);
  const Hash32 m = msg_of("m");
  EXPECT_FALSE(verify(bogus, m, kp.sign(m)));
}

TEST(Schnorr, OversizedScalarInSignatureRejected) {
  const Keypair kp = Keypair::from_node_id(10);
  const Hash32 m = msg_of("m");
  Signature sig = kp.sign(m);
  sig.s = UInt256::max().to_be_bytes();  // >= group order
  EXPECT_FALSE(verify(kp.public_key(), m, sig));
}

TEST(SchnorrBatch, EmptyAndSingletonBatches) {
  EXPECT_TRUE(verify_batch({}));
  const Keypair kp = Keypair::from_node_id(20);
  const Hash32 m = msg_of("solo");
  EXPECT_TRUE(verify_batch({{kp.public_key(), m, kp.sign(m)}}));
  Signature bad = kp.sign(m);
  bad.s[31] ^= 1;
  EXPECT_FALSE(verify_batch({{kp.public_key(), m, bad}}));
}

TEST(SchnorrBatch, AcceptsAllValid) {
  std::vector<BatchVerifyItem> items;
  for (std::uint64_t i = 0; i < 12; ++i) {
    // Repeat signers so the lift-dedup path is exercised.
    const Keypair kp = Keypair::from_node_id(30 + (i % 3));
    Writer w;
    w.str("batch tx");
    w.u64(i);
    const Hash32 m = sha256(w.buffer());
    items.push_back({kp.public_key(), m, kp.sign(m)});
  }
  EXPECT_TRUE(verify_batch(items));
}

TEST(SchnorrBatch, OneForgeryPoisonsTheBatch) {
  std::vector<BatchVerifyItem> items;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Keypair kp = Keypair::from_node_id(40 + i);
    Writer w;
    w.str("batch tx");
    w.u64(i);
    const Hash32 m = sha256(w.buffer());
    items.push_back({kp.public_key(), m, kp.sign(m)});
  }
  for (std::size_t victim : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    auto tampered = items;
    tampered[victim].sig.s[31] ^= 1;
    EXPECT_FALSE(verify_batch(tampered)) << "victim " << victim;
  }
  // A message swap (valid signature, wrong digest) must also fail.
  auto swapped = items;
  std::swap(swapped[1].msg, swapped[2].msg);
  EXPECT_FALSE(verify_batch(swapped));
}

TEST(SchnorrBatch, MalformedItemsRejected) {
  std::vector<BatchVerifyItem> items;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const Keypair kp = Keypair::from_node_id(50 + i);
    const Hash32 m = msg_of("x");
    items.push_back({kp.public_key(), m, kp.sign(m)});
  }
  auto bad_key = items;
  bad_key[2].pub = UInt256(5).to_be_bytes();  // x not on the curve
  EXPECT_FALSE(verify_batch(bad_key));
  auto bad_s = items;
  bad_s[1].sig.s = UInt256::max().to_be_bytes();  // >= group order
  EXPECT_FALSE(verify_batch(bad_s));
}

class SchnorrSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrSweep, ManyNodeIdentities) {
  const Keypair kp = Keypair::from_node_id(GetParam());
  const Hash32 m = msg_of("consortium block");
  const Signature sig = kp.sign(m);
  EXPECT_TRUE(verify(kp.public_key(), m, sig));
  // Cross-check: the signature must not verify under a shifted key.
  const Keypair other = Keypair::from_node_id(GetParam() + 1000);
  EXPECT_FALSE(verify(other.public_key(), m, sig));
}

INSTANTIATE_TEST_SUITE_P(NodeIds, SchnorrSweep,
                         ::testing::Values(0, 1, 2, 3, 10, 50, 99, 255, 1024));

}  // namespace
}  // namespace themis::crypto
