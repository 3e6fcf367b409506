// Checkpoint finality overlay: votes and certificates.
//
// Themis's fork choice gives only probabilistic finality — the anchor trails
// the head by a statistically chosen depth, and nothing prevents a
// sufficiently heavy late branch from reorging below it.  Following Gosig
// (PAPERS.md), this layer adds BFT-style hard finality on top of the
// equal/unpredictable block production: every k heights ("the checkpoint
// interval") each consortium member signs a *checkpoint vote* over
// (height, block id, epoch) with its existing secp256k1 Schnorr key and
// gossips it; a checkpoint that accumulates votes carrying more than 2/3 of
// the registered consortium weight hard-finalizes the chain prefix up to and
// including the checkpoint block.
//
// The vote digest is domain-separated from block-header and transaction
// signatures ("Themis/ckpt-vote"), so a checkpoint signature can never be
// replayed as either, and vice versa.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/schnorr.h"
#include "ledger/types.h"

namespace themis::finality {

/// One member's signature over a checkpoint (height, block, epoch).
struct CheckpointVote {
  /// Wire size of encode(): height, block, epoch, voter, signature.
  static constexpr std::size_t kEncodedSize = 8 + 32 + 8 + 8 + 64;

  std::uint64_t height = 0;        ///< checkpoint height (multiple of k)
  ledger::BlockHash block{};       ///< the block this voter saw at `height`
  std::uint64_t epoch = 0;         ///< checkpoint sequence number, height / k
  ledger::NodeId voter = 0;        ///< consortium member id
  crypto::Signature signature{};   ///< Schnorr over digest()

  /// The signed message: tagged hash over (height, block, epoch).  The voter
  /// id is *outside* the digest — the signature itself binds the key — so
  /// aggregation backends can combine signatures over the same digest.
  Hash32 digest() const;
  /// Gossip inventory id: hash of (digest, voter), used for per-peer
  /// known-set duplicate suppression exactly like block and tx ids.
  Hash32 vote_id() const;

  Bytes encode() const;
  /// Throws DecodeError on truncated/trailing/malformed input.
  static CheckpointVote decode(ByteSpan raw);

  bool operator==(const CheckpointVote&) const = default;
};

/// Digest for a (height, block, epoch) triple without building a vote.
Hash32 checkpoint_digest(std::uint64_t height, const ledger::BlockHash& block,
                         std::uint64_t epoch);

/// A checkpoint that reached quorum: the voter set plus the combined
/// signature bytes produced by an AggregationBackend.  `voters` is sorted
/// ascending and duplicate-free; the aggregate encodes in voter order.
struct CheckpointCertificate {
  std::uint64_t height = 0;
  ledger::BlockHash block{};
  std::uint64_t epoch = 0;
  std::uint8_t backend = 0;            ///< AggregationBackend::id()
  std::vector<ledger::NodeId> voters;  ///< sorted ascending
  Bytes aggregate;                     ///< backend-specific combined signature

  Bytes encode() const;
  /// Throws DecodeError on malformed input (including unsorted voters).
  static CheckpointCertificate decode(ByteSpan raw);

  bool operator==(const CheckpointCertificate&) const = default;
};

}  // namespace themis::finality
