// Binary Merkle tree over transaction ids.
//
// The block header commits to its transaction list through merkle_root();
// inclusion proofs let light verifiers check membership without the body.
// Odd levels duplicate the last node (Bitcoin-style).  The empty tree has a
// well-defined all-zero root.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace themis::crypto {

/// Merkle root of the given leaf hashes.
Hash32 merkle_root(const std::vector<Hash32>& leaves);

/// Interior node over two children: sha256d(left | right).  An odd level
/// pairs its last node with itself.
Hash32 merkle_parent(const Hash32& left, const Hash32& right);

/// One step of an inclusion proof.
struct MerkleStep {
  Hash32 sibling;
  bool sibling_on_left = false;

  bool operator==(const MerkleStep&) const = default;
};

using MerkleProof = std::vector<MerkleStep>;

/// Build the inclusion proof for leaf `index`.  Throws on out-of-range.
MerkleProof merkle_prove(const std::vector<Hash32>& leaves, std::size_t index);

/// Verify an inclusion proof against a root.
bool merkle_verify(const Hash32& leaf, const MerkleProof& proof, const Hash32& root);

}  // namespace themis::crypto
