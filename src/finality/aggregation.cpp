#include "finality/aggregation.h"

#include <algorithm>

#include "common/check.h"
#include "common/serialize.h"
#include "crypto/sha256.h"

namespace themis::finality {

using crypto::Point;
using crypto::Scalar;

namespace {

/// Shared pre-verification: backend id, non-empty sorted member voters,
/// quorum weight, and aggregate sized for `per_voter` bytes per voter plus
/// `fixed` trailing bytes.  Decode already enforced sortedness/uniqueness
/// for wire certificates; re-check here so locally built ones get the same
/// scrutiny.
bool check_shape(const CheckpointCertificate& cert,
                 const ValidatorSet& validators, std::uint8_t backend_id,
                 std::size_t per_voter, std::size_t fixed) {
  if (cert.backend != backend_id) return false;
  if (cert.voters.empty()) return false;
  if (!std::is_sorted(cert.voters.begin(), cert.voters.end())) return false;
  if (std::adjacent_find(cert.voters.begin(), cert.voters.end()) !=
      cert.voters.end()) {
    return false;
  }
  for (const ledger::NodeId id : cert.voters) {
    if (!validators.is_member(id)) return false;
  }
  if (!validators.quorum(validators.weight_of(cert.voters))) return false;
  return cert.aggregate.size() == per_voter * cert.voters.size() + fixed;
}

/// Deterministic half-aggregation coefficients: z_0 = 1, z_i derived from the
/// certificate transcript (digest, voters, every R).  The verifier can
/// recompute them from the certificate alone, and a forger must pick R values
/// that satisfy an equation whose coefficients depend on those very values.
std::vector<Scalar> half_agg_coefficients(const Hash32& digest,
                                          const std::vector<ledger::NodeId>& voters,
                                          const std::uint8_t* r_bytes,
                                          std::size_t n) {
  Writer t(32 + 40 * n);
  t.hash(digest);
  for (std::size_t i = 0; i < n; ++i) {
    t.u64(voters[i]);
    t.raw(ByteSpan(r_bytes + 32 * i, 32));
  }
  const Hash32 seed = crypto::tagged_hash("Themis/halfagg-seed", t.buffer());

  std::vector<Scalar> z(n);
  z[0] = Scalar::from_u64(1);
  for (std::size_t i = 1; i < n; ++i) {
    Writer w(40);
    w.hash(seed);
    w.u64(static_cast<std::uint64_t>(i));
    const Hash32 d = crypto::tagged_hash("Themis/halfagg-z", w.buffer());
    UInt256 trimmed = UInt256::from_be_bytes(d);
    trimmed.set_limb(2, 0);
    trimmed.set_limb(3, 0);  // 128-bit coefficients, as in verify_batch
    z[i] = trimmed.is_zero() ? Scalar::from_u64(1) : Scalar(trimmed);
  }
  return z;
}

}  // namespace

// ---------------------------------------------------------------------------
// ValidatorSet
// ---------------------------------------------------------------------------

ValidatorSet::ValidatorSet(std::vector<Validator> members)
    : members_(std::move(members)) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Validator& v = members_[i];
    expects(v.weight > 0, "validator weight must be positive");
    const auto [it, fresh] = index_.emplace(v.id, i);
    expects(fresh, "duplicate validator id");
    total_weight_ += v.weight;
  }
}

ValidatorSet ValidatorSet::deterministic(std::size_t n_nodes) {
  std::vector<Validator> members;
  members.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Validator v;
    v.id = static_cast<ledger::NodeId>(i);
    v.key = crypto::Keypair::from_node_id(i).public_key();
    members.push_back(v);
  }
  return ValidatorSet(std::move(members));
}

const Validator* ValidatorSet::find(ledger::NodeId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &members_[it->second];
}

std::uint64_t ValidatorSet::weight_of(
    const std::vector<ledger::NodeId>& ids) const {
  std::uint64_t sum = 0;
  for (const ledger::NodeId id : ids) {
    if (const Validator* v = find(id)) sum += v->weight;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// ConcatAggregation
// ---------------------------------------------------------------------------

Bytes ConcatAggregation::aggregate(
    const std::vector<CheckpointVote>& votes) const {
  Bytes out;
  out.reserve(crypto::kSignatureSize * votes.size());
  for (const CheckpointVote& v : votes) {
    out.insert(out.end(), v.signature.r.begin(), v.signature.r.end());
    out.insert(out.end(), v.signature.s.begin(), v.signature.s.end());
  }
  return out;
}

bool ConcatAggregation::verify(const CheckpointCertificate& cert,
                               const ValidatorSet& validators) const {
  if (!check_shape(cert, validators, kId, crypto::kSignatureSize, 0)) {
    return false;
  }
  const Hash32 digest = checkpoint_digest(cert.height, cert.block, cert.epoch);
  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(cert.voters.size());
  for (std::size_t i = 0; i < cert.voters.size(); ++i) {
    crypto::BatchVerifyItem item;
    item.pub = validators.find(cert.voters[i])->key;
    item.msg = digest;
    const auto sig = crypto::Signature::from_bytes(
        ByteSpan(cert.aggregate.data() + crypto::kSignatureSize * i,
                 crypto::kSignatureSize));
    item.sig = *sig;  // size checked by check_shape
    items.push_back(item);
  }
  return crypto::verify_batch(items);
}

// ---------------------------------------------------------------------------
// HalfAggregation
// ---------------------------------------------------------------------------

Bytes HalfAggregation::aggregate(const std::vector<CheckpointVote>& votes) const {
  expects(!votes.empty(), "cannot aggregate zero votes");
  const std::size_t n = votes.size();
  Bytes r_bytes;
  r_bytes.reserve(32 * n);
  for (const CheckpointVote& v : votes) {
    r_bytes.insert(r_bytes.end(), v.signature.r.begin(), v.signature.r.end());
  }
  std::vector<ledger::NodeId> voters;
  voters.reserve(n);
  for (const CheckpointVote& v : votes) voters.push_back(v.voter);

  const std::vector<Scalar> z =
      half_agg_coefficients(votes[0].digest(), voters, r_bytes.data(), n);
  Scalar s_star;
  for (std::size_t i = 0; i < n; ++i) {
    s_star = s_star + z[i] * Scalar::from_bytes(votes[i].signature.s);
  }

  Bytes out = std::move(r_bytes);
  const Hash32 s_out = s_star.to_bytes();
  out.insert(out.end(), s_out.begin(), s_out.end());
  return out;
}

bool HalfAggregation::verify(const CheckpointCertificate& cert,
                             const ValidatorSet& validators) const {
  if (!check_shape(cert, validators, kId, 32, 32)) return false;
  const std::size_t n = cert.voters.size();
  const Hash32 digest = checkpoint_digest(cert.height, cert.block, cert.epoch);
  const std::uint8_t* r_bytes = cert.aggregate.data();

  // s*·G == Σ zᵢ·Rᵢ + Σ (zᵢ·eᵢ)·Pᵢ over the certificate's coefficients.
  const std::vector<Scalar> z =
      half_agg_coefficients(digest, cert.voters, r_bytes, n);
  std::vector<Scalar> coeffs;
  std::vector<Point> points;
  coeffs.reserve(2 * n);
  points.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    Hash32 rx;
    std::copy(r_bytes + 32 * i, r_bytes + 32 * (i + 1), rx.begin());
    const UInt256 rx_raw = UInt256::from_be_bytes(rx);
    if (rx_raw >= crypto::field_prime()) return false;
    const std::optional<Point> r = Point::lift_x(rx_raw);
    if (!r.has_value()) return false;
    const crypto::PublicKey& pub = validators.find(cert.voters[i])->key;
    const std::optional<Point> p =
        Point::lift_x(UInt256::from_be_bytes(pub));
    if (!p.has_value()) return false;

    coeffs.push_back(z[i]);
    points.push_back(*r);
    coeffs.push_back(z[i] * crypto::schnorr_challenge(rx, pub, digest));
    points.push_back(*p);
  }
  Hash32 s_bytes;
  std::copy(r_bytes + 32 * n, r_bytes + 32 * (n + 1), s_bytes.begin());
  const UInt256 s_raw = UInt256::from_be_bytes(s_bytes);
  if (s_raw >= crypto::group_order()) return false;
  return Point::mul_gen(Scalar(s_raw))
      .equals(crypto::multi_scalar_mul(coeffs, points));
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<AggregationBackend> make_backend(std::uint8_t id) {
  switch (id) {
    case ConcatAggregation::kId: return std::make_unique<ConcatAggregation>();
    case HalfAggregation::kId: return std::make_unique<HalfAggregation>();
    default: return nullptr;
  }
}

std::unique_ptr<AggregationBackend> make_backend(std::string_view name) {
  if (name == "concat") return std::make_unique<ConcatAggregation>();
  if (name == "half") return std::make_unique<HalfAggregation>();
  return nullptr;
}

}  // namespace themis::finality
