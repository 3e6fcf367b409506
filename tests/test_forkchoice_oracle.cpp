// Randomized oracle tests: the production fork-choice rules must agree with
// naive reference implementations on arbitrary block trees.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "consensus/forkchoice.h"
#include "consensus/head_tracker.h"
#include "core/geost.h"
#include "oracles/naive_aggregates.h"
#include "tree_builder.h"

namespace themis {
namespace {

using consensus::GhostRule;
using consensus::LongestChainRule;
using core::GeostRule;
using ledger::BlockHash;
using ledger::BlockTree;

constexpr std::size_t kNodes = 6;

/// Grow a random tree: each new block extends a uniformly random existing
/// block, so deep chains and bushy forks both occur.
struct RandomTree {
  RandomTree(std::uint64_t seed, int n_blocks) {
    Rng rng(seed);
    std::vector<std::string> names{"g"};
    for (int i = 0; i < n_blocks; ++i) {
      const std::string parent =
          names[rng.next_below(names.size())];
      const std::string name = test::numbered("b", i);
      builder.add(name, parent,
                  static_cast<ledger::NodeId>(rng.next_below(kNodes)));
      names.push_back(name);
    }
  }
  test::TreeBuilder builder;
};

// --- reference implementations (deliberately naive) -------------------------

std::uint64_t ref_subtree_size(const BlockTree& tree, const BlockHash& root) {
  std::uint64_t n = 1;
  for (const auto& child : tree.children(root)) {
    n += ref_subtree_size(tree, child);
  }
  return n;
}

std::uint64_t ref_max_depth(const BlockTree& tree, const BlockHash& root) {
  std::uint64_t best = tree.height(root);
  for (const auto& child : tree.children(root)) {
    best = std::max(best, ref_max_depth(tree, child));
  }
  return best;
}

void ref_collect_counts(const BlockTree& tree, const BlockHash& root,
                        std::map<ledger::NodeId, std::uint64_t>& counts) {
  const auto producer = tree.block(root)->producer();
  if (producer != ledger::kNoNode) ++counts[producer];
  for (const auto& child : tree.children(root)) {
    ref_collect_counts(tree, child, counts);
  }
}

double ref_equality_variance(const BlockTree& tree, const BlockHash& root) {
  std::map<ledger::NodeId, std::uint64_t> counts;
  ref_collect_counts(tree, root, counts);
  std::uint64_t total = 0;
  for (const auto& [id, c] : counts) total += c;
  if (total == 0) return 0.0;
  std::vector<double> freqs(kNodes, 0.0);
  for (const auto& [id, c] : counts) {
    freqs[id] = static_cast<double>(c) / static_cast<double>(total);
  }
  return variance(freqs);
}

BlockHash ref_ghost(const BlockTree& tree, const BlockHash& start) {
  BlockHash cur = start;
  for (;;) {
    const auto& kids = tree.children(cur);
    if (kids.empty()) return cur;
    BlockHash best = kids[0];
    for (const auto& k : kids) {
      const auto wk = ref_subtree_size(tree, k);
      const auto wb = ref_subtree_size(tree, best);
      if (wk > wb || (wk == wb && tree.receipt_seq(k) < tree.receipt_seq(best))) {
        best = k;
      }
    }
    cur = best;
  }
}

BlockHash ref_longest(const BlockTree& tree, const BlockHash& start) {
  BlockHash cur = start;
  for (;;) {
    const auto& kids = tree.children(cur);
    if (kids.empty()) return cur;
    BlockHash best = kids[0];
    for (const auto& k : kids) {
      const auto dk = ref_max_depth(tree, k);
      const auto db = ref_max_depth(tree, best);
      if (dk > db || (dk == db && tree.receipt_seq(k) < tree.receipt_seq(best))) {
        best = k;
      }
    }
    cur = best;
  }
}

BlockHash ref_geost(const BlockTree& tree, const BlockHash& start) {
  BlockHash cur = start;
  for (;;) {
    const auto& kids = tree.children(cur);
    if (kids.empty()) return cur;
    BlockHash best = kids[0];
    for (const auto& k : kids) {
      const auto wk = ref_subtree_size(tree, k);
      const auto wb = ref_subtree_size(tree, best);
      if (wk != wb) {
        if (wk > wb) best = k;
        continue;
      }
      const double vk = ref_equality_variance(tree, k);
      const double vb = ref_equality_variance(tree, best);
      if (vk != vb) {
        if (vk < vb) best = k;
        continue;
      }
      if (tree.receipt_seq(k) < tree.receipt_seq(best)) best = k;
    }
    cur = best;
  }
}

class ForkChoiceOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForkChoiceOracle, GhostMatchesReference) {
  RandomTree t(GetParam(), 60);
  const auto& tree = t.builder.tree();
  EXPECT_EQ(GhostRule().choose_head(tree, tree.genesis_hash()),
            ref_ghost(tree, tree.genesis_hash()));
}

TEST_P(ForkChoiceOracle, LongestMatchesReference) {
  RandomTree t(GetParam(), 60);
  const auto& tree = t.builder.tree();
  EXPECT_EQ(LongestChainRule().choose_head(tree, tree.genesis_hash()),
            ref_longest(tree, tree.genesis_hash()));
}

TEST_P(ForkChoiceOracle, GeostMatchesReference) {
  RandomTree t(GetParam(), 60);
  const auto& tree = t.builder.tree();
  EXPECT_EQ(GeostRule(kNodes).choose_head(tree, tree.genesis_hash()),
            ref_geost(tree, tree.genesis_hash()));
}

TEST_P(ForkChoiceOracle, SubtreeStatisticsMatchReference) {
  RandomTree t(GetParam() + 1000, 40);
  const auto& tree = t.builder.tree();
  // Check every block in the tree.
  std::vector<BlockHash> stack{tree.genesis_hash()};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    EXPECT_EQ(tree.subtree_size(cur), ref_subtree_size(tree, cur));
    EXPECT_DOUBLE_EQ(core::subtree_equality_variance(tree, cur, kNodes),
                     ref_equality_variance(tree, cur));
    EXPECT_EQ(consensus::subtree_max_height(tree, cur),
              ref_max_depth(tree, cur));
    for (const auto& child : tree.children(cur)) stack.push_back(child);
  }
}

TEST_P(ForkChoiceOracle, HeadsAreLeaves) {
  RandomTree t(GetParam() + 2000, 80);
  const auto& tree = t.builder.tree();
  for (const BlockHash head :
       {GhostRule().choose_head(tree, tree.genesis_hash()),
        LongestChainRule().choose_head(tree, tree.genesis_hash()),
        GeostRule(kNodes).choose_head(tree, tree.genesis_hash())}) {
    EXPECT_TRUE(tree.children(head).empty());
  }
}

TEST_P(ForkChoiceOracle, WalkFromMidChainIsConsistent) {
  // Choosing from an ancestor of the GHOST head must yield the same head.
  RandomTree t(GetParam() + 3000, 60);
  const auto& tree = t.builder.tree();
  GhostRule ghost;
  const BlockHash head = ghost.choose_head(tree, tree.genesis_hash());
  const auto chain = tree.chain_to(head);
  for (std::size_t i = 0; i < chain.size(); i += 7) {
    EXPECT_EQ(ghost.choose_head(tree, chain[i]), head) << "start " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkChoiceOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- incremental-aggregate differential tests -------------------------------
//
// The cached aggregates (ledger/blocktree.h) must be indistinguishable from
// the retained DFS oracle (ledger/naive_aggregates.h) after EVERY insert, for
// in-order, out-of-order (orphan-adopted), and forked arrival sequences.

using ledger::NaiveTreeAggregates;

/// Assert every entry's cached aggregates against the DFS oracle.
void expect_aggregates_match(const BlockTree& tree, std::size_t n_nodes) {
  std::vector<BlockHash> stack{tree.genesis_hash()};
  while (!stack.empty()) {
    const BlockHash cur = stack.back();
    stack.pop_back();
    ASSERT_EQ(tree.subtree_size(cur),
              NaiveTreeAggregates::subtree_size(tree, cur));
    ASSERT_EQ(tree.subtree_max_height(cur),
              NaiveTreeAggregates::subtree_max_height(tree, cur));
    // Bit-identical, not just approximately equal: the fast path must never
    // change a GEOST comparison.
    const double cached = tree.subtree_equality_variance(cur, n_nodes);
    const double oracle =
        NaiveTreeAggregates::subtree_equality_variance(tree, cur, n_nodes);
    ASSERT_EQ(cached, oracle);
    ASSERT_EQ(tree.subtree_producer_counts(cur, n_nodes),
              NaiveTreeAggregates::subtree_producer_counts(tree, cur, n_nodes));
    for (const auto& child : tree.children(cur)) stack.push_back(child);
  }
}

class IncrementalAggregates : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalAggregates, MatchOracleAfterEveryInOrderInsert) {
  Rng rng(GetParam());
  test::TreeBuilder builder;
  std::vector<std::string> names{"g"};
  for (int i = 0; i < 40; ++i) {
    const std::string name = test::numbered("b", i);
    builder.add(name, names[rng.next_below(names.size())],
                static_cast<ledger::NodeId>(rng.next_below(kNodes)));
    names.push_back(name);
    expect_aggregates_match(builder.tree(), kNodes);
  }
}

TEST_P(IncrementalAggregates, MatchOracleUnderOrphanAdoption) {
  // Build a random tree's blocks first, then deliver them in a shuffled
  // order: most arrive before their parent and sit in the orphan buffer
  // until a whole chain attaches at once.
  Rng rng(GetParam() + 500);
  test::TreeBuilder builder;
  std::vector<std::string> names{"g"};
  std::vector<std::string> pending;
  for (int i = 0; i < 40; ++i) {
    const std::string name = test::numbered("o", i);
    builder.make(name, names[rng.next_below(names.size())],
                 static_cast<ledger::NodeId>(rng.next_below(kNodes)));
    names.push_back(name);
    pending.push_back(name);
  }
  // Fisher-Yates with the test rng (deterministic per seed).
  for (std::size_t i = pending.size(); i > 1; --i) {
    std::swap(pending[i - 1], pending[rng.next_below(i)]);
  }
  std::size_t inserted = 0;
  for (const std::string& name : pending) {
    const auto result = builder.insert(name);
    ASSERT_NE(result, ledger::BlockTree::InsertResult::duplicate);
    if (result == ledger::BlockTree::InsertResult::inserted) ++inserted;
    expect_aggregates_match(builder.tree(), kNodes);
  }
  // Every orphan chain must eventually have been adopted.
  EXPECT_EQ(builder.tree().size(), 41u);
  EXPECT_EQ(builder.tree().orphan_count(), 0u);
  EXPECT_LE(inserted, pending.size());
}

TEST_P(IncrementalAggregates, ColdQueriesBelowAggregateFloorStayExact) {
  // The floor freezes incremental maintenance below it; queries there must
  // still agree with the oracle (and with the pre-floor hot values).
  Rng rng(GetParam() + 900);
  test::TreeBuilder builder;
  std::vector<std::string> names{"g"};
  auto grow = [&](int count, const std::string& prefix) {
    for (int i = 0; i < count; ++i) {
      const std::string name = prefix + std::to_string(i);
      builder.add(name, names[rng.next_below(names.size())],
                  static_cast<ledger::NodeId>(rng.next_below(kNodes)));
      names.push_back(name);
    }
  };
  grow(30, "c");
  auto& tree = builder.tree();
  const std::uint64_t floor = tree.max_height() / 2;
  tree.set_aggregate_floor(floor);
  expect_aggregates_match(tree, kNodes);
  // Keep growing after the floor froze the prefix, checking as we go.
  grow(20, "d");
  expect_aggregates_match(tree, kNodes);
  // The floor is monotone: lowering attempts are ignored.
  tree.set_aggregate_floor(0);
  EXPECT_EQ(tree.aggregate_floor(), floor);
}

/// One data transaction per block, so release_body has a body to drop.
std::vector<ledger::Transaction> body_for(ledger::NodeId producer,
                                          std::size_t i) {
  return {ledger::Transaction(producer, i + 1, 0,
                              bytes_of("body " + std::to_string(i)))};
}

TEST_P(IncrementalAggregates, ReleasedBodiesKeepTopologyAndAggregates) {
  // The same blocks in the same receipt order into two trees; one releases
  // a random half of its bodies.  Everything but the transactions must stay
  // identical, aggregates included (below the floor too).
  Rng rng(GetParam() + 1300);
  test::TreeBuilder builder;
  BlockTree released;
  std::vector<std::string> names{"g"};
  for (int i = 0; i < 40; ++i) {
    const std::string name = std::to_string(i) + "r";
    const auto producer = static_cast<ledger::NodeId>(rng.next_below(kNodes));
    released.insert(builder.add(name, names[rng.next_below(names.size())],
                                producer, 1.0, -1, body_for(producer, i)));
    names.push_back(name);
  }
  std::size_t dropped = 0;
  for (const std::string& name : names) {
    if (name == "g" || !rng.next_bernoulli(0.5)) continue;
    released.release_body(builder.hash(name));
    released.release_body(builder.hash(name));  // idempotent
    ++dropped;
  }
  released.set_aggregate_floor(builder.tree().max_height() / 2);
  builder.tree().set_aggregate_floor(builder.tree().max_height() / 2);

  const BlockTree& kept = builder.tree();
  EXPECT_EQ(kept.bodies_resident(), 40u);
  EXPECT_EQ(released.bodies_resident(), 40u - dropped);
  EXPECT_EQ(released.size(), kept.size());
  EXPECT_EQ(released.tips(), kept.tips());
  for (const std::string& name : names) {
    const BlockHash id = builder.hash(name);
    ASSERT_TRUE(released.contains(id));
    EXPECT_EQ(released.block(id)->id(), id);
    EXPECT_EQ(released.block(id)->header(), kept.block(id)->header());
    EXPECT_EQ(released.parent(id), kept.parent(id));
    EXPECT_EQ(released.height(id), kept.height(id));
    EXPECT_EQ(released.children(id), kept.children(id));
    EXPECT_EQ(released.receipt_seq(id), kept.receipt_seq(id));
    EXPECT_EQ(released.position(id), kept.position(id));
    EXPECT_EQ(released.subtree_size(id), kept.subtree_size(id));
    EXPECT_EQ(released.subtree_max_height(id), kept.subtree_max_height(id));
    EXPECT_EQ(released.subtree_equality_variance(id, kNodes),
              kept.subtree_equality_variance(id, kNodes));
    EXPECT_EQ(released.subtree_producer_counts(id, kNodes),
              kept.subtree_producer_counts(id, kNodes));
    // No loader: a released body is simply unavailable.
    const bool resident = !released.block(id)->transactions().empty();
    EXPECT_EQ(released.body(id) != nullptr, resident || name == "g");
  }
  expect_aggregates_match(released, kNodes);
}

TEST_P(IncrementalAggregates, BodyAccessorReadsThroughTheLoader) {
  Rng rng(GetParam() + 1700);
  test::TreeBuilder builder;
  BlockTree released;
  std::map<BlockHash, ledger::BlockPtr> store;
  std::vector<std::string> names{"g"};
  for (int i = 0; i < 20; ++i) {
    const std::string name = std::to_string(i) + "l";
    const auto producer = static_cast<ledger::NodeId>(rng.next_below(kNodes));
    const ledger::BlockPtr block =
        builder.add(name, names[rng.next_below(names.size())], producer, 1.0,
                    -1, body_for(producer, i));
    released.insert(block);
    store[block->id()] = block;
    names.push_back(name);
  }
  store.erase(builder.hash("0l"));  // e.g. pruned
  std::vector<BlockHash> asked;
  released.set_body_loader([&](const BlockHash& id) -> ledger::BlockPtr {
    asked.push_back(id);
    const auto it = store.find(id);
    return it == store.end() ? nullptr : it->second;
  });
  for (const std::string& name : names) {
    released.release_body(builder.hash(name));
  }
  EXPECT_EQ(released.bodies_resident(), 0u);

  // Resident or empty bodies never reach the loader.
  const BlockHash genesis = builder.hash("g");
  EXPECT_EQ(released.body(genesis), released.block(genesis));
  EXPECT_TRUE(asked.empty());
  for (const std::string& name : names) {
    if (name == "g") continue;
    const BlockHash id = builder.hash(name);
    const ledger::BlockPtr body = released.body(id);
    ASSERT_FALSE(asked.empty());
    EXPECT_EQ(asked.back(), id);
    if (name == "0l") {
      EXPECT_EQ(body, nullptr) << "the loader lost it";
      continue;
    }
    EXPECT_EQ(body, builder.get(name)) << "the loader's block, as loaded";
    EXPECT_TRUE(released.block(id)->transactions().empty())
        << "a read does not make the body resident again";
  }
  EXPECT_EQ(released.body(BlockHash{}), nullptr);  // unknown id
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAggregates,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- HeadTracker differential tests -----------------------------------------
//
// The tracker's head/anchor/reorg sequence must be bit-identical to the
// seed's recompute-from-anchor loop (choose_head from the anchor after every
// batch, reorg = head change that does not extend the old head, anchor
// walked down from the head by finality_depth).

struct SeedReplay {
  explicit SeedReplay(const BlockTree& tree, std::uint64_t depth)
      : finality_depth(depth),
        head(tree.genesis_hash()),
        anchor(tree.genesis_hash()) {}

  void on_tree_changed(const BlockTree& tree,
                       const consensus::ForkChoiceRule& rule) {
    const BlockHash new_head = rule.choose_head(tree, anchor);
    if (new_head == head) return;
    if (!tree.is_ancestor(head, new_head)) ++reorgs;
    head = new_head;
    const std::uint64_t head_height = tree.height(head);
    if (head_height <= finality_depth) return;
    const std::uint64_t target = head_height - finality_depth;
    if (tree.height(anchor) >= target) return;
    BlockHash cur = head;
    while (tree.height(cur) > target) cur = *tree.parent(cur);
    anchor = cur;
  }

  std::uint64_t finality_depth;
  BlockHash head;
  BlockHash anchor;
  std::uint64_t reorgs = 0;
};

class HeadTrackerDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

/// With `release`, every block carries a body, and a twin tree fed the same
/// arrivals releases the body of every block at or below its tracker's
/// anchor, as a live node does below its finalized checkpoint.  Fork choice
/// reads headers only, so the twin must pick the same heads and anchors.
template <typename Rule>
void run_head_tracker_differential(std::uint64_t seed, const Rule& rule,
                                   std::uint64_t finality_depth,
                                   bool shuffled, bool release = false) {
  Rng rng(seed);
  test::TreeBuilder builder;
  std::vector<std::string> names{"g"};
  std::vector<std::string> arrivals;
  for (int i = 0; i < 80; ++i) {
    const std::string name = test::numbered("h", i);
    // Mostly chain-extending (realistic), sometimes a random fork point.
    const std::string parent = (rng.next_below(4) == 0)
                                   ? names[rng.next_below(names.size())]
                                   : names.back();
    const auto producer = static_cast<ledger::NodeId>(rng.next_below(kNodes));
    builder.make(name, parent, producer, 1.0, -1,
                 release ? body_for(producer, static_cast<std::size_t>(i))
                         : std::vector<ledger::Transaction>{});
    names.push_back(name);
    arrivals.push_back(name);
  }
  if (shuffled) {
    // Shuffle within a sliding window so orphan adoption occurs without the
    // whole tree arriving as one giant batch.
    for (std::size_t i = 0; i + 4 < arrivals.size(); ++i) {
      std::swap(arrivals[i], arrivals[i + rng.next_below(4)]);
    }
  }

  auto& tree = builder.tree();
  consensus::HeadTracker tracker;
  tracker.reset(tree, rule, tree.genesis_hash(), finality_depth);
  SeedReplay replay(tree, finality_depth);
  BlockTree twin;
  consensus::HeadTracker twin_tracker;
  twin_tracker.reset(twin, rule, twin.genesis_hash(), finality_depth);
  std::uint64_t tracker_reorgs = 0;
  for (const std::string& name : arrivals) {
    const auto result = builder.insert(name);
    ASSERT_NE(result, ledger::BlockTree::InsertResult::duplicate);
    if (release) {
      ASSERT_EQ(twin.insert(builder.get(name)), result);
    }
    if (result == ledger::BlockTree::InsertResult::orphaned) continue;
    const auto update =
        tracker.on_insert(tree, rule, builder.hash(name));
    if (update.reorg) ++tracker_reorgs;
    replay.on_tree_changed(tree, rule);
    ASSERT_EQ(tracker.head(), replay.head) << "after " << name;
    ASSERT_EQ(tracker.anchor(), replay.anchor) << "after " << name;
    ASSERT_EQ(tracker.anchor_height(), tree.height(replay.anchor));
    ASSERT_EQ(tracker.head_height(), tree.height(replay.head));
    ASSERT_EQ(tracker_reorgs, replay.reorgs) << "after " << name;
    if (!release) continue;
    twin_tracker.on_insert(twin, rule, builder.hash(name));
    ASSERT_EQ(twin_tracker.head(), tracker.head()) << "after " << name;
    ASSERT_EQ(twin_tracker.anchor(), tracker.anchor()) << "after " << name;
    for (std::optional<BlockHash> cur = twin_tracker.anchor();
         cur.has_value() && !twin.block(*cur)->transactions().empty();
         cur = twin.parent(*cur)) {
      twin.release_body(*cur);
    }
  }
  EXPECT_EQ(tree.orphan_count(), 0u);
  if (release) {
    EXPECT_LT(twin.bodies_resident(), tree.bodies_resident())
        << "the finalized prefix was released";
  }
}

TEST_P(HeadTrackerDifferential, GhostInOrder) {
  run_head_tracker_differential(GetParam(), GhostRule(), 8, false);
}

TEST_P(HeadTrackerDifferential, GhostShuffled) {
  run_head_tracker_differential(GetParam() + 100, GhostRule(), 8, true);
}

TEST_P(HeadTrackerDifferential, LongestInOrder) {
  run_head_tracker_differential(GetParam() + 200, LongestChainRule(), 8,
                                false);
}

TEST_P(HeadTrackerDifferential, GeostInOrder) {
  run_head_tracker_differential(GetParam() + 300, GeostRule(kNodes), 8,
                                false);
}

TEST_P(HeadTrackerDifferential, GeostShuffled) {
  run_head_tracker_differential(GetParam() + 400, GeostRule(kNodes), 8, true);
}

TEST_P(HeadTrackerDifferential, GeostShallowFinality) {
  // A tiny finality depth exercises the "fork below the anchor" no-op path.
  run_head_tracker_differential(GetParam() + 500, GeostRule(kNodes), 2, false);
}

TEST_P(HeadTrackerDifferential, GeostWithReleasedFinalizedPrefix) {
  run_head_tracker_differential(GetParam() + 600, GeostRule(kNodes), 8, false,
                                /*release=*/true);
}

TEST_P(HeadTrackerDifferential, GeostShuffledWithReleasedFinalizedPrefix) {
  run_head_tracker_differential(GetParam() + 700, GeostRule(kNodes), 2, true,
                                /*release=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadTrackerDifferential,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace themis
