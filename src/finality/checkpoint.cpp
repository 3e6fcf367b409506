#include "finality/checkpoint.h"

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace themis::finality {

namespace {

constexpr std::string_view kVoteTag = "Themis/ckpt-vote";
constexpr std::string_view kVoteIdTag = "Themis/ckpt-vote-id";

/// Voter lists in certificates are bounded by the consortium size; this is a
/// decode-time sanity ceiling, far above any realistic membership.
constexpr std::size_t kMaxCertVoters = 1 << 16;

}  // namespace

Hash32 checkpoint_digest(std::uint64_t height, const ledger::BlockHash& block,
                         std::uint64_t epoch) {
  Writer w(48);
  w.u64(height);
  w.hash(block);
  w.u64(epoch);
  return crypto::tagged_hash(kVoteTag, w.buffer());
}

Hash32 CheckpointVote::digest() const {
  return checkpoint_digest(height, block, epoch);
}

Hash32 CheckpointVote::vote_id() const {
  Writer w(40);
  w.hash(digest());
  w.u64(voter);
  return crypto::tagged_hash(kVoteIdTag, w.buffer());
}

Bytes CheckpointVote::encode() const {
  Writer w(kEncodedSize);
  w.u64(height);
  w.hash(block);
  w.u64(epoch);
  w.u64(voter);
  w.hash(signature.r);
  w.hash(signature.s);
  return w.take();
}

CheckpointVote CheckpointVote::decode(ByteSpan raw) {
  Reader r(raw);
  CheckpointVote v;
  v.height = r.u64();
  v.block = r.hash();
  v.epoch = r.u64();
  v.voter = r.u64();
  v.signature.r = r.hash();
  v.signature.s = r.hash();
  r.expect_done();
  return v;
}

Bytes CheckpointCertificate::encode() const {
  Writer w(64 + 8 * voters.size() + aggregate.size());
  w.u64(height);
  w.hash(block);
  w.u64(epoch);
  w.u8(backend);
  w.varint(voters.size());
  for (const ledger::NodeId id : voters) w.u64(id);
  w.bytes(aggregate);
  return w.take();
}

CheckpointCertificate CheckpointCertificate::decode(ByteSpan raw) {
  Reader r(raw);
  CheckpointCertificate c;
  c.height = r.u64();
  c.block = r.hash();
  c.epoch = r.u64();
  c.backend = r.u8();
  const std::uint64_t count = r.varint();
  if (count > kMaxCertVoters) {
    throw DecodeError("certificate voter list exceeds maximum");
  }
  c.voters.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ledger::NodeId id = r.u64();
    if (!c.voters.empty() && id <= c.voters.back()) {
      throw DecodeError("certificate voters must be sorted and unique");
    }
    c.voters.push_back(id);
  }
  c.aggregate = r.bytes();
  r.expect_done();
  return c;
}

}  // namespace themis::finality
