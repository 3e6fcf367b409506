// Schnorr signatures over secp256k1 (BIP-340 style, x-only public keys,
// deterministic nonces derived with HMAC-SHA-256).
//
// Every consensus node holds a Keypair; block headers are signed so receivers
// can verify the producer belongs to the consortium node set (§III).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/secp256k1.h"

namespace themis::crypto {

/// 32-byte x-only public key.
using PublicKey = Hash32;

/// 64-byte signature: R.x || s.
struct Signature {
  Hash32 r{};
  Hash32 s{};

  Bytes to_bytes() const;
  static std::optional<Signature> from_bytes(ByteSpan raw);
  bool operator==(const Signature&) const = default;
};

/// Serialized signature size in bytes (§VI-C budgets ~128 B per block for the
/// signature record; ours is 64 B of signature + 32 B of key).
inline constexpr std::size_t kSignatureSize = 64;

class Keypair {
 public:
  /// Derive a keypair deterministically from a 32-byte seed.
  /// Throws if the seed maps to the zero scalar (probability ~2^-256).
  static Keypair from_seed(const Hash32& seed);

  /// Convenience: derive from a 64-bit node id (for simulations).
  static Keypair from_node_id(std::uint64_t node_id);

  const PublicKey& public_key() const { return public_key_; }

  /// Sign a 32-byte message digest.
  Signature sign(const Hash32& msg) const;

 private:
  Keypair(const Scalar& secret, const PublicKey& pub)
      : secret_(secret), public_key_(pub) {}

  Scalar secret_;       // normalized so the public point has even y
  PublicKey public_key_;
};

/// Verify a signature over a 32-byte digest under an x-only public key.
bool verify(const PublicKey& pub, const Hash32& msg, const Signature& sig);

/// The challenge scalar e = H_tag(R.x || P || m) mod n used by sign/verify.
/// Exposed so linear-combination verifiers (batch verification, checkpoint
/// half-aggregation) can reconstruct each signature's challenge.
Scalar schnorr_challenge(const Hash32& rx, const PublicKey& pub,
                         const Hash32& msg);

/// One (key, message, signature) triple queued for batch verification.
struct BatchVerifyItem {
  PublicKey pub{};
  Hash32 msg{};
  Signature sig{};
};

/// Verify a whole batch at once: true iff EVERY signature is valid.
///
/// Uses the standard random-linear-combination check — with deterministic
/// per-batch randomizers z_i (z_0 = 1) derived by hashing the batch contents,
///   (sum z_i * s_i) * G  ==  sum z_i * R_i  +  sum (z_i * e_i) * P_i
/// holds for honest signatures and fails with overwhelming probability if any
/// signature in the batch is forged.  The shared doubling chain makes the
/// marginal cost per signature several times cheaper than verify().
///
/// On a false return the caller learns only that at least one item is bad;
/// re-verify individually to find which (the expected-rare path).
bool verify_batch(const std::vector<BatchVerifyItem>& items);

}  // namespace themis::crypto
