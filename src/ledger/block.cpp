#include "ledger/block.h"

#include "common/check.h"
#include "common/serialize.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace themis::ledger {

Bytes BlockHeader::encode_unsigned() const {
  Writer w(128);
  w.u32(version);
  w.u64(height);
  w.hash(prev);
  w.hash(merkle_root);
  w.u32(producer);
  w.u32(epoch);
  w.f64(difficulty);
  w.i64(timestamp_nanos);
  w.u64(nonce);
  w.u32(tx_count);
  return w.take();
}

BlockHeader BlockHeader::decode_unsigned(ByteSpan raw) {
  Reader r(raw);
  BlockHeader h;
  h.version = r.u32();
  h.height = r.u64();
  h.prev = r.hash();
  h.merkle_root = r.hash();
  h.producer = r.u32();
  h.epoch = r.u32();
  h.difficulty = r.f64();
  h.timestamp_nanos = r.i64();
  h.nonce = r.u64();
  h.tx_count = r.u32();
  return h;
}

BlockHash BlockHeader::hash() const { return crypto::sha256d(encode_unsigned()); }

Block::Block(BlockHeader header, crypto::Signature signature,
             std::vector<Transaction> transactions)
    : header_(header),
      signature_(signature),
      transactions_(std::move(transactions)) {}

const Block& Block::genesis() {
  static const Block g = [] {
    BlockHeader h;
    h.version = 1;
    h.height = 0;
    h.producer = kNoNode;
    h.difficulty = 1.0;
    // A recognizable, shared constant committed in prev and merkle_root.
    h.prev = crypto::sha256(bytes_of("Themis consortium genesis"));
    h.merkle_root = crypto::merkle_root({});
    Block b(h, crypto::Signature{}, {});
    // Prime the lazy id cache while still inside the (thread-safe) static
    // initializer: genesis() is shared by every concurrently-running trial,
    // and a lazy first id() would race on the mutable cache fields.
    (void)b.id();
    return b;
  }();
  return g;
}

const BlockHash& Block::id() const {
  if (!id_cached_) {
    id_ = header_.hash();
    id_cached_ = true;
  }
  return id_;
}

Hash32 Block::compute_merkle_root() const {
  std::vector<Hash32> leaves;
  leaves.reserve(transactions_.size());
  for (const Transaction& tx : transactions_) leaves.push_back(tx.id());
  return crypto::merkle_root(leaves);
}

std::size_t Block::size_bytes() const {
  return header_.encode_unsigned().size() + crypto::kSignatureSize +
         4 /* tx count */ + header_.tx_count * kCanonicalTxSize;
}

Bytes Block::encode() const {
  Writer w(size_bytes());
  const Bytes header_bytes = header_.encode_unsigned();
  w.raw(header_bytes);
  w.raw(signature_.to_bytes());
  w.u32(static_cast<std::uint32_t>(transactions_.size()));
  for (const Transaction& tx : transactions_) w.raw(tx.encode());
  return w.take();
}

Block Block::decode(ByteSpan raw) {
  // The unsigned header is fixed-size: compute once from a default header.
  static const std::size_t kHeaderSize = BlockHeader().encode_unsigned().size();
  Reader r(raw);
  const Bytes header_bytes = r.raw(kHeaderSize);
  BlockHeader header = BlockHeader::decode_unsigned(header_bytes);
  const Bytes sig_bytes = r.raw(crypto::kSignatureSize);
  const auto signature = crypto::Signature::from_bytes(sig_bytes);
  if (!signature.has_value()) throw DecodeError("malformed signature");
  const std::uint32_t tx_count = r.u32();
  // Bound the count by the bytes actually present before reserving: a
  // hostile frame must not turn a 4-byte field into a 2 TiB allocation.
  if (tx_count > r.remaining() / kCanonicalTxSize) {
    throw DecodeError("transaction count exceeds payload");
  }
  std::vector<Transaction> txs;
  txs.reserve(tx_count);
  for (std::uint32_t i = 0; i < tx_count; ++i) {
    txs.push_back(Transaction::decode(r.raw(kCanonicalTxSize)));
  }
  r.expect_done();
  return Block(header, *signature, std::move(txs));
}

bool satisfies_target(const BlockHash& pow_digest, const UInt256& target) {
  return UInt256::from_be_bytes(pow_digest) < target;
}

}  // namespace themis::ledger
