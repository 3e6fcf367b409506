#include "oracles/naive_aggregates.h"

#include <algorithm>

#include "common/stats.h"

namespace themis::ledger {

std::uint64_t NaiveTreeAggregates::subtree_size(const BlockTree& tree,
                                                const BlockHash& id) {
  std::uint64_t count = 0;
  std::vector<BlockHash> stack{id};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    ++count;
    for (const BlockHash& child : tree.children(cur)) stack.push_back(child);
  }
  return count;
}

std::uint64_t NaiveTreeAggregates::subtree_max_height(const BlockTree& tree,
                                                      const BlockHash& id) {
  std::uint64_t best = tree.height(id);
  std::vector<BlockHash> stack{id};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    best = std::max(best, tree.height(cur));
    for (const BlockHash& child : tree.children(cur)) stack.push_back(child);
  }
  return best;
}

std::vector<std::uint64_t> NaiveTreeAggregates::subtree_producer_counts(
    const BlockTree& tree, const BlockHash& id, std::size_t n_nodes) {
  std::vector<std::uint64_t> counts;
  std::vector<BlockHash> scratch;
  subtree_producer_counts(tree, id, n_nodes, counts, scratch);
  return counts;
}

void NaiveTreeAggregates::subtree_producer_counts(
    const BlockTree& tree, const BlockHash& id, std::size_t n_nodes,
    std::vector<std::uint64_t>& out, std::vector<BlockHash>& scratch) {
  out.assign(n_nodes, 0);
  scratch.clear();
  scratch.push_back(id);
  while (!scratch.empty()) {
    const BlockHash cur = scratch.back();
    scratch.pop_back();
    const NodeId producer = tree.block(cur)->producer();
    if (producer < n_nodes) ++out[producer];
    for (const BlockHash& child : tree.children(cur)) scratch.push_back(child);
  }
}

double NaiveTreeAggregates::subtree_equality_variance(const BlockTree& tree,
                                                      const BlockHash& id,
                                                      std::size_t n_nodes) {
  std::vector<std::uint64_t> counts;
  std::vector<BlockHash> scratch;
  return subtree_equality_variance(tree, id, n_nodes, counts, scratch);
}

double NaiveTreeAggregates::subtree_equality_variance(
    const BlockTree& tree, const BlockHash& id, std::size_t n_nodes,
    std::vector<std::uint64_t>& counts, std::vector<BlockHash>& scratch) {
  subtree_producer_counts(tree, id, n_nodes, counts, scratch);
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  return frequency_variance_noalloc(counts, static_cast<double>(total));
}

}  // namespace themis::ledger
