#include "crypto/schnorr.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/serialize.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace themis::crypto {

namespace {

constexpr std::string_view kChallengeTag = "Themis/challenge";

/// Challenge scalar e = H_tag(R.x || P.x || m) mod n.
Scalar challenge(const Hash32& rx, const PublicKey& px, const Hash32& msg) {
  Bytes buf;
  buf.reserve(96);
  buf.insert(buf.end(), rx.begin(), rx.end());
  buf.insert(buf.end(), px.begin(), px.end());
  buf.insert(buf.end(), msg.begin(), msg.end());
  return Scalar::from_bytes(tagged_hash(kChallengeTag, buf));
}

}  // namespace

Scalar schnorr_challenge(const Hash32& rx, const PublicKey& pub,
                         const Hash32& msg) {
  return challenge(rx, pub, msg);
}

Bytes Signature::to_bytes() const {
  Bytes out;
  out.reserve(kSignatureSize);
  out.insert(out.end(), r.begin(), r.end());
  out.insert(out.end(), s.begin(), s.end());
  return out;
}

std::optional<Signature> Signature::from_bytes(ByteSpan raw) {
  if (raw.size() != kSignatureSize) return std::nullopt;
  Signature sig;
  std::copy(raw.begin(), raw.begin() + 32, sig.r.begin());
  std::copy(raw.begin() + 32, raw.end(), sig.s.begin());
  return sig;
}

Keypair Keypair::from_seed(const Hash32& seed) {
  Scalar secret = Scalar::from_bytes(tagged_hash("Themis/keygen", seed));
  expects(!secret.is_zero(), "seed maps to the zero scalar");
  const Point::Affine affine = Point::mul_gen(secret).to_affine();
  // BIP-340 normalization: use the secret whose public point has even y.
  // Negating the secret mirrors the point over the x-axis, so the x-only
  // public key is unchanged and no second multiplication is needed.
  if (affine.y.is_odd()) secret = secret.negate();
  return Keypair(secret, affine.x.value().to_be_bytes());
}

Keypair Keypair::from_node_id(std::uint64_t node_id) {
  Writer w;
  w.str("Themis/node-seed");
  w.u64(node_id);
  return from_seed(sha256(w.buffer()));
}

Signature Keypair::sign(const Hash32& msg) const {
  // Deterministic nonce (RFC-6979 flavored): k = H(HMAC(d, m)) mod n.
  const Hash32 secret_bytes = secret_.to_bytes();
  Hash32 nonce_seed = hmac_sha256(secret_bytes, msg);
  Scalar k = Scalar::from_bytes(nonce_seed);
  // The zero scalar is astronomically unlikely; re-derive until non-zero so
  // the API has no failure mode.
  while (k.is_zero()) {
    nonce_seed = hmac_sha256(secret_bytes, nonce_seed);
    k = Scalar::from_bytes(nonce_seed);
  }

  const Point::Affine r_affine = Point::mul_gen(k).to_affine();
  // (-k)G mirrors R over the x-axis: same x, flipped parity.  Pick the sign
  // whose R has even y without recomputing the multiplication.
  if (r_affine.y.is_odd()) k = k.negate();

  const Hash32 rx = r_affine.x.value().to_be_bytes();
  const Scalar e = challenge(rx, public_key_, msg);
  const Scalar s = k + e * secret_;
  return Signature{rx, s.to_bytes()};
}

bool verify(const PublicKey& pub, const Hash32& msg, const Signature& sig) {
  const std::optional<Point> pub_point = Point::lift_x(UInt256::from_be_bytes(pub));
  if (!pub_point.has_value()) return false;

  const UInt256 s_raw = UInt256::from_be_bytes(sig.s);
  if (s_raw >= group_order()) return false;
  const Scalar s(s_raw);

  const UInt256 rx_raw = UInt256::from_be_bytes(sig.r);
  if (rx_raw >= field_prime()) return false;

  const Scalar e = challenge(sig.r, pub, msg);
  // R = s*G - e*P must have even y and x == sig.r.
  const Point r_point = Point::mul_gen(s) + pub_point->mul_wnaf(e.negate());
  if (r_point.is_infinity()) return false;
  const Point::Affine r_affine = r_point.to_affine();
  if (r_affine.y.is_odd()) return false;
  return r_affine.x.value() == rx_raw;
}

bool verify_batch(const std::vector<BatchVerifyItem>& items) {
  if (items.empty()) return true;
  if (items.size() == 1) {
    return verify(items[0].pub, items[0].msg, items[0].sig);
  }

  const std::size_t n = items.size();
  std::vector<Scalar> s_values(n);
  std::vector<Scalar> e_values(n);
  std::vector<Point> r_points(n);
  std::vector<Point> p_points(n);
  // The same sender typically appears many times per batch; lifting an x-only
  // key costs a field square root, so dedupe lifts by key bytes.
  std::unordered_map<PublicKey, Point, Hash32Hasher> lifted;
  for (std::size_t i = 0; i < n; ++i) {
    const BatchVerifyItem& it = items[i];
    const UInt256 s_raw = UInt256::from_be_bytes(it.sig.s);
    if (s_raw >= group_order()) return false;
    const UInt256 rx_raw = UInt256::from_be_bytes(it.sig.r);
    if (rx_raw >= field_prime()) return false;

    const auto [pub_it, fresh] = lifted.try_emplace(it.pub);
    if (fresh) {
      const std::optional<Point> p = Point::lift_x(UInt256::from_be_bytes(it.pub));
      if (!p.has_value()) return false;
      pub_it->second = *p;
    }
    const std::optional<Point> r = Point::lift_x(rx_raw);
    if (!r.has_value()) return false;

    s_values[i] = Scalar(s_raw);
    e_values[i] = challenge(it.sig.r, it.pub, it.msg);
    r_points[i] = *r;
    p_points[i] = pub_it->second;
  }

  // Deterministic randomizers: z_0 = 1, z_i = H(batch contents || i) truncated
  // to 128 bits.  Deriving them from the batch itself means a forger would
  // have to pick signatures satisfying an equation whose coefficients depend
  // on those very signatures.
  Bytes transcript;
  transcript.reserve(n * 128);
  for (const BatchVerifyItem& it : items) {
    transcript.insert(transcript.end(), it.pub.begin(), it.pub.end());
    transcript.insert(transcript.end(), it.msg.begin(), it.msg.end());
    transcript.insert(transcript.end(), it.sig.r.begin(), it.sig.r.end());
    transcript.insert(transcript.end(), it.sig.s.begin(), it.sig.s.end());
  }
  const Hash32 seed = tagged_hash("Themis/batch-seed", transcript);

  std::vector<Scalar> z(n);
  z[0] = Scalar::from_u64(1);
  for (std::size_t i = 1; i < n; ++i) {
    Writer w;
    w.bytes(ByteSpan(seed.data(), seed.size()));
    w.u64(static_cast<std::uint64_t>(i));
    const Hash32 digest = tagged_hash("Themis/batch-z", w.buffer());
    UInt256 trimmed = UInt256::from_be_bytes(digest);
    trimmed.set_limb(2, 0);
    trimmed.set_limb(3, 0);  // 128-bit randomizers halve the wNAF scan length
    z[i] = trimmed.is_zero() ? Scalar::from_u64(1) : Scalar(trimmed);
  }

  // (sum z_i s_i) G  ==  sum z_i R_i + sum (z_i e_i) P_i.
  Scalar lhs;
  std::vector<Scalar> coeffs;
  std::vector<Point> points;
  coeffs.reserve(2 * n);
  points.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    lhs = lhs + z[i] * s_values[i];
    coeffs.push_back(z[i]);
    points.push_back(r_points[i]);
    coeffs.push_back(z[i] * e_values[i]);
    points.push_back(p_points[i]);
  }
  return Point::mul_gen(lhs).equals(multi_scalar_mul(coeffs, points));
}

}  // namespace themis::crypto
