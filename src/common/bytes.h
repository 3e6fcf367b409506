// Byte-buffer aliases and hex conversion helpers shared across the library.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace themis {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// A 32-byte value (SHA-256 digest, block id, key material, ...).
using Hash32 = std::array<std::uint8_t, 32>;

/// Lowercase hex encoding of an arbitrary byte span.
std::string to_hex(ByteSpan data);

/// Lowercase hex of a 32-byte hash (convenience overload).
std::string to_hex(const Hash32& h);

/// Hex of a hash's first 8 bytes: the compact id log and trace records use
/// (unique within any plausible run).
inline std::string short_hex(const Hash32& h) {
  return to_hex(ByteSpan(h.data(), 8));
}

/// Parse hex (upper or lower case, no 0x prefix). Throws PreconditionError on
/// odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Parse exactly 64 hex characters into a Hash32.
Hash32 hash_from_hex(std::string_view hex);

/// Constant-time-ish equality for fixed-size secrets (avoids short-circuit).
bool equal_ct(ByteSpan a, ByteSpan b);

/// Convenience: build Bytes from a string literal payload.
Bytes bytes_of(std::string_view s);

/// Hasher for Hash32 keys in unordered containers.  The key is already a
/// cryptographic digest, so folding a prefix is enough.  noexcept matters:
/// libstdc++ then recomputes the hash when it needs one instead of storing
/// 8 bytes of it in every node.
struct Hash32Hasher {
  std::size_t operator()(const Hash32& id) const noexcept {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      out = (out << 8) | id[i];
    }
    return out;
  }
};

}  // namespace themis
