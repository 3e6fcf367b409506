#include "core/geost.h"

#include "common/check.h"

namespace themis::core {

using ledger::BlockHash;
using ledger::BlockTree;

double subtree_equality_variance(const BlockTree& tree, const BlockHash& root,
                                 std::size_t n_nodes) {
  // The tree maintains exact per-producer counts incrementally and caches
  // the variance double; the value is bit-identical to the historical
  // DFS + frequency_variance computation (tests/oracles/naive_aggregates.h).
  return tree.subtree_equality_variance(root, n_nodes);
}

GeostRule::GeostRule(std::size_t n_nodes) : n_nodes_(n_nodes) {
  expects(n_nodes >= 1, "GEOST needs the consensus-set size");
}

bool GeostRule::Priority::preferred_over(const Priority& rhs) const {
  if (weight != rhs.weight) return weight > rhs.weight;
  if (equality_variance != rhs.equality_variance) {
    return equality_variance < rhs.equality_variance;
  }
  return receipt_seq < rhs.receipt_seq;
}

GeostRule::Priority GeostRule::priority_of(const BlockTree& tree,
                                           const BlockHash& root) const {
  Priority p;
  p.weight = tree.subtree_size(root);
  p.equality_variance = subtree_equality_variance(tree, root, n_nodes_);
  p.receipt_seq = tree.receipt_seq(root);
  return p;
}

BlockHash GeostRule::pick_child(const BlockTree& tree,
                                const std::vector<BlockHash>& children) const {
  // Same decision as comparing priority_of() for every child, but σ_f² —
  // Θ(n_nodes) when its cache is stale — is evaluated only on an actual
  // weight tie, which the weight-first ordering makes rare once one subtree
  // pulls ahead.
  BlockHash best = children[0];
  std::uint64_t best_weight = tree.subtree_size(best);
  bool have_best_variance = false;
  double best_variance = 0.0;
  for (std::size_t i = 1; i < children.size(); ++i) {
    const BlockHash& candidate = children[i];
    const std::uint64_t weight = tree.subtree_size(candidate);
    if (weight < best_weight) continue;
    if (weight > best_weight) {
      best = candidate;
      best_weight = weight;
      have_best_variance = false;
      continue;
    }
    if (!have_best_variance) {
      best_variance = subtree_equality_variance(tree, best, n_nodes_);
      have_best_variance = true;
    }
    const double variance = subtree_equality_variance(tree, candidate, n_nodes_);
    if (variance < best_variance ||
        (variance == best_variance &&
         tree.receipt_seq(candidate) < tree.receipt_seq(best))) {
      best = candidate;
      best_variance = variance;
    }
  }
  return best;
}

}  // namespace themis::core
