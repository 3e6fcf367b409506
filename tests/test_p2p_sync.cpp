// Chain-sync protocol logic: locator construction and range serving are pure
// functions over BlockTree, so every catch-up scenario (fresh node, restart,
// healed fork) is testable without sockets.
#include "p2p/sync.h"

#include <gtest/gtest.h>

#include <string>

#include "tree_builder.h"

namespace themis::p2p {
namespace {

using test::TreeBuilder;

/// Linear chain g -> c1 -> ... -> cN on one builder.
void extend_chain(TreeBuilder& builder, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i <= to; ++i) {
    builder.add(test::numbered("c", i),
                i == 1 ? "g" : test::numbered("c", i - 1),
                static_cast<ledger::NodeId>(i % 4));
  }
}

TEST(BuildLocator, DenseNearHeadSparseTowardGenesis) {
  TreeBuilder builder;
  extend_chain(builder, 1, 64);
  const auto locator = build_locator(builder.tree(), builder.hash("c64"));

  ASSERT_FALSE(locator.empty());
  EXPECT_EQ(locator.front(), builder.hash("c64"));
  EXPECT_EQ(locator.back(), builder.tree().genesis_hash());

  // Heights strictly decrease, the first kLocatorDenseSpan+1 consecutively.
  std::uint64_t prev = builder.tree().height(locator[0]);
  for (std::size_t i = 1; i < locator.size(); ++i) {
    const std::uint64_t h = builder.tree().height(locator[i]);
    EXPECT_LT(h, prev);
    if (i <= kLocatorDenseSpan) {
      EXPECT_EQ(h, prev - 1);
    }
    prev = h;
  }
  // O(log height): far smaller than the chain itself.
  EXPECT_LT(locator.size(), 24u);
}

TEST(BuildLocator, ShortChainListsEveryBlock) {
  TreeBuilder builder;
  extend_chain(builder, 1, 3);
  const auto locator = build_locator(builder.tree(), builder.hash("c3"));
  ASSERT_EQ(locator.size(), 4u);  // c3 c2 c1 g
  EXPECT_EQ(locator.front(), builder.hash("c3"));
  EXPECT_EQ(locator.back(), builder.tree().genesis_hash());
}

TEST(BuildLocator, GenesisOnlyLocatorIsJustGenesis) {
  TreeBuilder builder;
  const auto locator =
      build_locator(builder.tree(), builder.tree().genesis_hash());
  ASSERT_EQ(locator.size(), 1u);
  EXPECT_EQ(locator[0], builder.tree().genesis_hash());
}

TEST(ServeRange, ServesExactlyTheMissingSuffix) {
  TreeBuilder responder;
  extend_chain(responder, 1, 20);

  // Requester shares the first 12 blocks.
  ledger::BlockTree requester;
  for (std::size_t i = 1; i <= 12; ++i) {
    requester.insert(responder.get(test::numbered("c", i)));
  }
  const auto locator = build_locator(requester, responder.hash("c12"));

  const auto served = serve_range(responder.tree(), responder.hash("c20"),
                                  locator, 512, 1u << 30);
  ASSERT_EQ(served.size(), 8u);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i]->id(), responder.hash(test::numbered("c", 13 + i)));
  }
}

TEST(ServeRange, ForkedRequesterIsServedFromTheForkPoint) {
  TreeBuilder responder;
  extend_chain(responder, 1, 10);
  // The requester followed a losing branch off c5 that the responder has
  // never seen (built but not inserted on the responder side).
  ledger::BlockTree requester;
  for (std::size_t i = 1; i <= 5; ++i) {
    requester.insert(responder.get(test::numbered("c", i)));
  }
  const auto s1 = responder.make("s1", "c5", 3);
  const auto s2 = responder.make("s2", "s1", 3);
  requester.insert(s1);
  requester.insert(s2);

  const auto locator = build_locator(requester, s2->id());
  const auto served = serve_range(responder.tree(), responder.hash("c10"),
                                  locator, 512, 1u << 30);
  // s2/s1 are unknown to the responder, so the fork point is c5: everything
  // after it on the responder's main chain is served.
  ASSERT_EQ(served.size(), 5u);
  EXPECT_EQ(served.front()->id(), responder.hash("c6"));
  EXPECT_EQ(served.back()->id(), responder.hash("c10"));
}

TEST(ServeRange, HonorsMaxBlocks) {
  TreeBuilder responder;
  extend_chain(responder, 1, 30);
  ledger::BlockTree requester;  // fresh node: genesis-only locator
  const auto locator = build_locator(requester, requester.genesis_hash());
  const auto served = serve_range(responder.tree(), responder.hash("c30"),
                                  locator, 10, 1u << 30);
  ASSERT_EQ(served.size(), 10u);
  EXPECT_EQ(served.front()->id(), responder.hash("c1"));
  EXPECT_EQ(served.back()->id(), responder.hash("c10"));
}

TEST(ServeRange, HonorsByteBudget) {
  TreeBuilder responder;
  extend_chain(responder, 1, 30);
  ledger::BlockTree requester;
  const auto locator = build_locator(requester, requester.genesis_hash());
  const std::size_t one_block = responder.get("c1")->size_bytes();
  const auto served = serve_range(responder.tree(), responder.hash("c30"),
                                  locator, 512, one_block * 3);
  // Stops once the budget is met; may overshoot by at most one block.
  EXPECT_GE(served.size(), 3u);
  EXPECT_LE(served.size(), 4u);
}

TEST(ServeRange, CaughtUpRequesterGetsNothing) {
  TreeBuilder responder;
  extend_chain(responder, 1, 6);
  const auto locator = build_locator(responder.tree(), responder.hash("c6"));
  EXPECT_TRUE(serve_range(responder.tree(), responder.hash("c6"), locator, 512,
                          1u << 30)
                  .empty());
}

TEST(ServeRange, SideBranchLocatorEntriesAreSkipped) {
  // The responder KNOWS the requester's branch blocks but they are not on
  // the responder's main chain; they must not be chosen as the fork point.
  TreeBuilder responder;
  extend_chain(responder, 1, 10);
  responder.add("s1", "c5", 3);  // side branch the responder has seen

  ledger::BlockTree requester;
  for (std::size_t i = 1; i <= 5; ++i) {
    requester.insert(responder.get(test::numbered("c", i)));
  }
  requester.insert(responder.get("s1"));

  const auto locator = build_locator(requester, responder.hash("s1"));
  const auto served = serve_range(responder.tree(), responder.hash("c10"),
                                  locator, 512, 1u << 30);
  ASSERT_EQ(served.size(), 5u);
  EXPECT_EQ(served.front()->id(), responder.hash("c6"));
}

TEST(ServeRange, SnapshotRootedResponderServesFromTheForkPoint) {
  // A restored node's tree is rooted at its snapshot block (c10 here), so
  // its heights no longer start at 0.  A requester on the same chain at c35
  // must get exactly c36..c40, and a batch cap must count from its fork
  // point, not from the root.
  TreeBuilder chain;
  extend_chain(chain, 1, 40);
  ledger::BlockTree responder(chain.get("c10"));
  for (std::size_t i = 11; i <= 40; ++i) {
    responder.insert(chain.get(test::numbered("c", i)));
  }
  ASSERT_EQ(responder.genesis_hash(), chain.hash("c10"));

  const auto near = build_locator(chain.tree(), chain.hash("c35"));
  const auto served =
      serve_range(responder, chain.hash("c40"), near, 512, 1u << 30);
  ASSERT_EQ(served.size(), 5u);
  EXPECT_EQ(served.front()->id(), chain.hash("c36"));
  EXPECT_EQ(served.back()->id(), chain.hash("c40"));

  const auto behind = build_locator(chain.tree(), chain.hash("c12"));
  const auto capped =
      serve_range(responder, chain.hash("c40"), behind, 5, 1u << 30);
  ASSERT_EQ(capped.size(), 5u);
  EXPECT_EQ(capped.front()->id(), chain.hash("c13"));
  EXPECT_EQ(capped.back()->id(), chain.hash("c17"));

  // A locator entirely below the root is served from the root up.
  const auto fresh = build_locator(chain.tree(), chain.hash("c4"));
  const auto from_root =
      serve_range(responder, chain.hash("c40"), fresh, 3, 1u << 30);
  ASSERT_EQ(from_root.size(), 3u);
  EXPECT_EQ(from_root.front()->id(), chain.hash("c11"));
}

}  // namespace
}  // namespace themis::p2p
