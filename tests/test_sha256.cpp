#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace themis::crypto {
namespace {

// FIPS 180-4 / NIST CAVS reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactlyOneBlock) {
  // 64 bytes: padding spills into a second block.
  EXPECT_EQ(to_hex(sha256(Bytes(64, 'a'))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

class Sha256Streaming : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Streaming, ChunkedMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  const Hash32 expected = sha256(data);

  const std::size_t chunk = GetParam();
  Sha256 ctx;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t len = std::min(chunk, data.size() - off);
    ctx.update(ByteSpan(data.data() + off, len));
  }
  EXPECT_EQ(ctx.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256Streaming,
                         ::testing::Values(1, 3, 31, 32, 63, 64, 65, 127, 128,
                                           299));

TEST(Sha256, EmptyUpdateAfterPartialBlockIsANoOp) {
  // A default span has a null data(); it must not reach memcpy.
  Sha256 ctx;
  ctx.update(bytes_of("abc"));
  ctx.update(ByteSpan{});
  ctx.update(Bytes{});
  EXPECT_EQ(ctx.finish(), sha256(bytes_of("abc")));
}

TEST(Sha256, ResetReusesContext) {
  Sha256 ctx;
  ctx.update(bytes_of("abc"));
  ctx.finish();
  ctx.reset();
  ctx.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DoubleFinishThrows) {
  Sha256 ctx;
  ctx.finish();
  EXPECT_THROW(ctx.finish(), PreconditionError);
  EXPECT_THROW(ctx.update(bytes_of("x")), PreconditionError);
}

TEST(Sha256d, IsDoubleHash) {
  const Hash32 once = sha256(bytes_of("hello"));
  EXPECT_EQ(sha256d(bytes_of("hello")),
            sha256(ByteSpan(once.data(), once.size())));
}

TEST(Sha256d, KnownBitcoinStyleVector) {
  // sha256d("hello") is a well-known reference value.
  EXPECT_EQ(to_hex(sha256d(bytes_of("hello"))),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
}

TEST(TaggedHash, DomainSeparation) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(tagged_hash("tag-a", msg), tagged_hash("tag-b", msg));
}

TEST(TaggedHash, Deterministic) {
  const Bytes msg = bytes_of("m");
  EXPECT_EQ(tagged_hash("t", msg), tagged_hash("t", msg));
}

TEST(TaggedHash, DiffersFromPlainHash) {
  const Bytes msg = bytes_of("m");
  EXPECT_NE(tagged_hash("t", msg), sha256(msg));
}

}  // namespace
}  // namespace themis::crypto
