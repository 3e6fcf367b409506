#include "p2p/sync.h"

#include <algorithm>

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

  // The fork point: newest locator entry on our main chain.  The tree's
  // root (genesis, or the snapshot block a restore re-rooted it at) is
  // always on it; entries below the root are unknown and skipped.
  BlockHash fork = tree.genesis_hash();
  for (const BlockHash& candidate : locator) {
    if (tree.contains(candidate) && tree.is_ancestor(candidate, head)) {
      fork = candidate;
      break;
    }
  }

  // Walk down from the head, keeping the main-chain blocks just above the
  // fork point, then serve them oldest first.
  const std::uint64_t fork_height = tree.height(fork);
  const std::uint64_t last =
      fork_height + std::min<std::uint64_t>(tree.height(head) - fork_height,
                                            max_blocks);
  std::vector<BlockHash> range;  // newest first
  BlockHash cur = head;
  for (std::uint64_t h = tree.height(head); h > fork_height; --h) {
    if (h <= last) range.push_back(cur);
    cur = *tree.parent(cur);
  }

  std::vector<BlockPtr> out;
  std::size_t bytes = 0;
  for (auto it = range.rbegin(); it != range.rend(); ++it) {
    BlockPtr block = tree.body(*it);
    if (block == nullptr) break;  // released and pruned: nothing past it
    bytes += block->size_bytes();
    out.push_back(std::move(block));
    if (bytes >= max_bytes) break;
  }
  return out;
}

}  // namespace themis::p2p
