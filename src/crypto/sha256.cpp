#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace themis::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

std::uint32_t big_sigma0(std::uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
std::uint32_t big_sigma1(std::uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
std::uint32_t small_sigma0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
std::uint32_t small_sigma1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
  finished_ = false;
}

void Sha256::compress(const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kRound[i] + w[i];
    const std::uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

Sha256& Sha256::update(ByteSpan data) {
  expects(!finished_, "Sha256 context already finalized");
  if (data.empty()) return *this;  // its data() may be null: no memcpy from it
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(buffer_);
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    compress(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Hash32 Sha256::finish() {
  expects(!finished_, "Sha256 context already finalized");

  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to 56 mod 64, then the 8-byte big-endian length.
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(ByteSpan(pad, pad_len));
  ensures(buffer_len_ == 0, "padding must land on a block boundary");
  finished_ = true;

  Hash32 out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Hash32 sha256(ByteSpan data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Hash32 sha256d(ByteSpan data) {
  const Hash32 first = sha256(data);
  return sha256(ByteSpan(first.data(), first.size()));
}

Hash32 tagged_hash(std::string_view tag, ByteSpan data) {
  const Hash32 tag_hash = sha256(
      ByteSpan(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  Sha256 ctx;
  ctx.update(ByteSpan(tag_hash.data(), tag_hash.size()));
  ctx.update(ByteSpan(tag_hash.data(), tag_hash.size()));
  ctx.update(data);
  return ctx.finish();
}

}  // namespace themis::crypto
