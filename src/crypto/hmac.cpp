#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256.h"

namespace themis::crypto {

Hash32 hmac_sha256(ByteSpan key, ByteSpan data) {
  std::uint8_t block_key[64] = {0};
  if (key.size() > 64) {
    const Hash32 hashed = sha256(key);
    std::memcpy(block_key, hashed.data(), hashed.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(block_key, key.data(), key.size());
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ByteSpan(ipad, 64));
  inner.update(data);
  const Hash32 inner_hash = inner.finish();

  Sha256 outer;
  outer.update(ByteSpan(opad, 64));
  outer.update(ByteSpan(inner_hash.data(), inner_hash.size()));
  return outer.finish();
}

Bytes hmac_expand(ByteSpan key, ByteSpan info, std::size_t n_blocks) {
  Bytes out;
  out.reserve(n_blocks * 32);
  Hash32 prev{};
  for (std::size_t i = 0; i < n_blocks; ++i) {
    Bytes material;
    if (i > 0) material.insert(material.end(), prev.begin(), prev.end());
    material.insert(material.end(), info.begin(), info.end());
    material.push_back(static_cast<std::uint8_t>(i + 1));
    prev = hmac_sha256(key, material);
    out.insert(out.end(), prev.begin(), prev.end());
  }
  return out;
}

}  // namespace themis::crypto
