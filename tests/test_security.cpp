// Security properties from §VI: resilience to 51 % effective-computing-power
// attacks (Proposition 2) and selfish-mining behaviour under the three fork
// choice rules.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "consensus/forkchoice.h"
#include "consensus/wire.h"
#include "core/geost.h"
#include "sim/experiment.h"
#include "tree_builder.h"

namespace themis {
namespace {

using consensus::GhostRule;
using consensus::LongestChainRule;
using core::GeostRule;
using test::TreeBuilder;

// Proposition 2, deterministic skeleton: once a block is buried under an
// honest subtree growing faster than the attacker's chain, the weight gap
// only widens and the block stays on the main chain under GHOST and GEOST.
TEST(Resilience, BuriedBlockSurvivesSlowerAttacker) {
  TreeBuilder b;
  // Honest chain: 10 blocks by rotating producers.
  std::string parent = "g";
  for (int i = 0; i < 10; ++i) {
    const std::string name = "h" + std::to_string(i);
    b.add(name, parent, static_cast<ledger::NodeId>(i % 5));
    parent = name;
  }
  // Attacker (q < 1): only 7 blocks in the same wall-clock span.
  parent = "g";
  for (int i = 0; i < 7; ++i) {
    const std::string name = "a" + std::to_string(i);
    b.add(name, parent, 9);
    parent = name;
  }
  GeostRule geost(10);
  GhostRule ghost;
  EXPECT_EQ(geost.choose_head(b.tree(), b.tree().genesis_hash()), b.hash("h9"));
  EXPECT_EQ(ghost.choose_head(b.tree(), b.tree().genesis_hash()), b.hash("h9"));
  EXPECT_TRUE(b.tree().is_ancestor(b.hash("h0"), b.hash("h9")));
}

// Proposition 2, probabilistic: simulate honest rate lambda and attacker rate
// q*lambda; the probability that the attacker ever catches up from k blocks
// behind is (q)^k -> displacement probability decays with burial depth.
class CatchUpProbability : public ::testing::TestWithParam<double> {};

TEST_P(CatchUpProbability, DecaysWithBurialDepth) {
  const double q = GetParam();
  Rng rng(1234);
  const int trials = 2000;
  auto catch_up_rate = [&](int deficit) {
    int caught = 0;
    for (int t = 0; t < trials; ++t) {
      int gap = deficit;
      // Random walk: attacker closes the gap with probability q/(1+q).
      for (int step = 0; step < 400 && gap > 0 && gap < 60; ++step) {
        gap += rng.next_bernoulli(q / (1.0 + q)) ? -1 : 1;
      }
      if (gap <= 0) ++caught;
    }
    return static_cast<double>(caught) / trials;
  };
  const double shallow = catch_up_rate(2);
  const double deep = catch_up_rate(8);
  EXPECT_LT(deep, shallow);
  EXPECT_NEAR(shallow, std::pow(q, 2), 0.08);
  EXPECT_LT(deep, std::pow(q, 8) + 0.03);
}

INSTANTIATE_TEST_SUITE_P(AttackerShares, CatchUpProbability,
                         ::testing::Values(0.3, 0.5, 0.7));

// End-to-end 51%-style attack: an attacker with under half the effective
// power mines a private chain from a mid-run fork point and reveals it; the
// honest GEOST network must not reorg the buried prefix.
TEST(Resilience, PrivateChainRevealDoesNotDisplaceBuriedBlocks) {
  sim::PoxConfig cfg;
  cfg.algorithm = core::Algorithm::kThemis;
  cfg.n_nodes = 24;
  cfg.beta = 8;
  cfg.txs_per_block = 0;
  cfg.seed = 11;
  sim::PoxExperiment exp(cfg);
  exp.run_to_height(60);

  auto& reference = exp.node(0);
  const auto chain = reference.main_chain();
  ASSERT_GT(chain.size(), 41u);
  const auto fork_point = chain[chain.size() - 21];  // 20 blocks deep
  const auto buried = chain[chain.size() - 20];

  // Forge an attacker chain of 12 blocks from the fork point (fewer than the
  // 20 honest blocks on top).  It must carry plausible difficulties to pass
  // validation, so mark producer 23 and reuse the expected difficulty.
  core::AdaptiveConfig adaptive;
  adaptive.n_nodes = cfg.n_nodes;
  adaptive.delta = exp.delta();
  adaptive.expected_interval_s = cfg.expected_interval_s;
  adaptive.h0 = cfg.h0;
  adaptive.initial_base_difficulty =
      cfg.expected_interval_s *
      std::accumulate(exp.hash_rates().begin(), exp.hash_rates().end(), 0.0);
  core::AdaptiveDifficulty forger(adaptive);

  ledger::BlockHash parent = fork_point;
  for (int i = 0; i < 12; ++i) {
    ledger::BlockHeader h;
    h.height = reference.tree().height(parent) + 1;
    h.prev = parent;
    h.producer = 23;
    h.epoch = forger.epoch_for(reference.tree(), parent);
    h.difficulty = forger.difficulty_for(reference.tree(), parent, 23);
    h.timestamp_nanos = exp.elapsed().count_nanos();
    h.nonce = static_cast<std::uint64_t>(i) + 777;
    auto block = std::make_shared<const ledger::Block>(
        h, crypto::Signature{}, std::vector<ledger::Transaction>{});
    exp.network().broadcast(23, consensus::kBlockAnnounce, block->size_bytes(),
                            ledger::BlockPtr(block));
    exp.simulation().run_until(exp.elapsed() + SimTime::seconds(1.0));
    parent = block->id();
  }
  exp.simulation().run_until(exp.elapsed() + SimTime::seconds(10.0));

  // The buried block is still on every node's main chain.
  for (std::size_t i = 0; i < exp.size(); ++i) {
    EXPECT_TRUE(exp.node(i).tree().is_ancestor(buried, exp.node(i).head()))
        << "node " << i << " was reorged";
  }
}

// Selfish mining (Fig. 2 discussion): a withheld longer chain displaces the
// honest chain under longest-chain but not under GHOST/GEOST once the honest
// subtree is heavier.
TEST(SelfishMining, WeightBeatsLength) {
  TreeBuilder b;
  b.add("h1", "g", 0);
  b.add("h2a", "h1", 1);
  b.add("h2b", "h1", 2);  // honest fork adds weight
  b.add("h3", "h2a", 3);
  // Attacker withholds a 4-deep chain and reveals.
  b.add("s1", "g", 9);
  b.add("s2", "s1", 9);
  b.add("s3", "s2", 9);
  b.add("s4", "s3", 9);

  EXPECT_EQ(LongestChainRule().choose_head(b.tree(), b.tree().genesis_hash()),
            b.hash("s4"));
  EXPECT_EQ(GhostRule().choose_head(b.tree(), b.tree().genesis_hash()),
            b.hash("h3"));
  EXPECT_EQ(GeostRule(10).choose_head(b.tree(), b.tree().genesis_hash()),
            b.hash("h3"));
}

// GEOST's extra tie-break confirms forks faster than GHOST: with equal
// weights, GHOST stays with first-received while GEOST already commits to the
// more equal subtree — so a single additional block settles GEOST's choice
// network-wide even when receipt orders differ between nodes.
TEST(SelfishMining, GeostBreaksWeightSymmetry) {
  TreeBuilder b;
  b.add("x", "g", 0);
  b.add("x1", "x", 0);  // concentrated branch, weight 2
  b.add("y", "g", 1);
  b.add("y1", "y", 2);  // equal branch, weight 2
  // GHOST cannot separate them except by local receipt order...
  EXPECT_EQ(GhostRule().choose_head(b.tree(), b.tree().genesis_hash()),
            b.hash("x1"));
  // ...GEOST picks the equal subtree on *every* node regardless of receipt.
  EXPECT_EQ(GeostRule(4).choose_head(b.tree(), b.tree().genesis_hash()),
            b.hash("y1"));
}

// §IV-B: idle nodes cannot grind difficulty down — the multiple floor keeps
// every difficulty at or above the basic difficulty.
TEST(DifficultyFloor, HoldsUnderLongIdleness) {
  TreeBuilder b;
  core::AdaptiveConfig cfg;
  cfg.n_nodes = 4;
  cfg.delta = 4;
  cfg.expected_interval_s = 1.0;
  cfg.h0 = 1.0;
  cfg.enable_retarget = false;
  core::AdaptiveDifficulty policy(cfg);
  // Node 3 idles for 5 full epochs.
  std::string parent = "g";
  for (int i = 0; i < 20; ++i) {
    const std::string name = test::numbered("c", i);
    b.add(name, parent, static_cast<ledger::NodeId>(i % 3));
    parent = name;
  }
  const double base = policy.initial_base_difficulty();
  for (int epoch_tip : {3, 7, 11, 15, 19}) {
    const std::string tip = "c" + std::to_string(epoch_tip);
    EXPECT_GE(policy.difficulty_for(b.tree(), b.hash(tip), 3), base);
  }
}

}  // namespace
}  // namespace themis
