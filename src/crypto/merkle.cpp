#include "crypto/merkle.h"

#include "common/check.h"
#include "crypto/sha256.h"

namespace themis::crypto {

Hash32 merkle_parent(const Hash32& left, const Hash32& right) {
  Sha256 ctx;
  ctx.update(ByteSpan(left.data(), left.size()));
  ctx.update(ByteSpan(right.data(), right.size()));
  const Hash32 once = ctx.finish();
  return sha256(ByteSpan(once.data(), once.size()));
}

Hash32 merkle_root(const std::vector<Hash32>& leaves) {
  if (leaves.empty()) return Hash32{};
  std::vector<Hash32> level = leaves;
  while (level.size() > 1) {
    if (level.size() % 2 == 1) level.push_back(level.back());
    std::vector<Hash32> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(merkle_parent(level[i], level[i + 1]));
    }
    level = std::move(next);
  }
  return level[0];
}

MerkleProof merkle_prove(const std::vector<Hash32>& leaves, std::size_t index) {
  expects(index < leaves.size(), "merkle proof index out of range");
  MerkleProof proof;
  std::vector<Hash32> level = leaves;
  std::size_t pos = index;
  while (level.size() > 1) {
    if (level.size() % 2 == 1) level.push_back(level.back());
    const std::size_t sibling = pos ^ 1u;
    proof.push_back(MerkleStep{level[sibling], /*sibling_on_left=*/(sibling < pos)});
    std::vector<Hash32> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(merkle_parent(level[i], level[i + 1]));
    }
    level = std::move(next);
    pos /= 2;
  }
  return proof;
}

bool merkle_verify(const Hash32& leaf, const MerkleProof& proof, const Hash32& root) {
  Hash32 acc = leaf;
  for (const MerkleStep& step : proof) {
    acc = step.sibling_on_left ? merkle_parent(step.sibling, acc)
                               : merkle_parent(acc, step.sibling);
  }
  return acc == root;
}

}  // namespace themis::crypto
