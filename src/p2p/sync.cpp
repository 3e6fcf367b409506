#include "p2p/sync.h"

#include "common/check.h"

namespace themis::p2p {

using ledger::BlockHash;
using ledger::BlockPtr;
using ledger::BlockTree;

std::vector<BlockHash> build_locator(const BlockTree& tree,
                                     const BlockHash& head) {
  expects(tree.contains(head), "locator head not in tree");
  std::vector<BlockHash> locator;
  BlockHash cur = head;
  std::size_t step = 1;
  while (true) {
    locator.push_back(cur);
    if (cur == tree.genesis_hash()) break;
    if (locator.size() > kLocatorDenseSpan) step *= 2;
    for (std::size_t i = 0; i < step; ++i) {
      const auto parent = tree.parent(cur);
      if (!parent.has_value()) break;
      cur = *parent;
      if (cur == tree.genesis_hash()) break;  // clamp: genesis is the floor
    }
  }
  return locator;
}

std::vector<BlockPtr> serve_range(const BlockTree& tree, const BlockHash& head,
                                  const std::vector<BlockHash>& locator,
                                  std::size_t max_blocks,
                                  std::size_t max_bytes) {
  expects(tree.contains(head), "serve head not in tree");
  const std::vector<BlockHash> chain = tree.chain_to(head);

  // The fork point: newest locator entry on our main chain.  Heights index
  // straight into `chain`, so each candidate costs two lookups.
  std::size_t start = 0;  // default: genesis (always common)
  for (const BlockHash& candidate : locator) {
    if (!tree.contains(candidate)) continue;
    const std::uint64_t height = tree.height(candidate);
    if (height < chain.size() && chain[height] == candidate) {
      start = static_cast<std::size_t>(height);
      break;
    }
  }

  std::vector<BlockPtr> out;
  std::size_t bytes = 0;
  for (std::size_t i = start + 1; i < chain.size() && out.size() < max_blocks;
       ++i) {
    BlockPtr block = tree.body(chain[i]);
    if (block == nullptr) break;  // released and pruned: nothing past it
    bytes += block->size_bytes();
    out.push_back(std::move(block));
    if (bytes >= max_bytes) break;
  }
  return out;
}

}  // namespace themis::p2p
