// §VI-E: the Proof-of-Stake instantiation of the Themis election mechanism.
#include "core/proof_of_stake.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "consensus/node.h"
#include "core/geost.h"
#include "metrics/equality.h"
#include "net/gossip.h"
#include "tree_builder.h"

namespace themis::core {
namespace {

TEST(StakeDifficulty, DifficultyInverselyProportionalToStake) {
  test::TreeBuilder b;
  StakeDifficulty pos({100, 50, 25, 25}, 1000.0);
  const double d0 =
      pos.difficulty_for(b.tree(), b.tree().genesis_hash(), 0);
  const double d1 =
      pos.difficulty_for(b.tree(), b.tree().genesis_hash(), 1);
  EXPECT_DOUBLE_EQ(d0 * 2.0, d1);  // twice the stake, half the difficulty
}

TEST(StakeDifficulty, ProbabilitiesAreStakeShares) {
  StakeDifficulty pos({60, 30, 10}, 1000.0);
  const auto p = pos.probabilities();
  EXPECT_DOUBLE_EQ(p[0], 0.6);
  EXPECT_DOUBLE_EQ(p[1], 0.3);
  EXPECT_DOUBLE_EQ(p[2], 0.1);
}

TEST(StakeDifficulty, UnpredictabilityAsBadAsStakeConcentration) {
  // Plain PoS inherits the concentration problem the paper describes.
  StakeDifficulty concentrated({1000, 1, 1, 1}, 1000.0);
  StakeDifficulty equal({1, 1, 1, 1}, 1000.0);
  EXPECT_GT(metrics::probability_variance(concentrated.probabilities()),
            metrics::probability_variance(equal.probabilities()));
  EXPECT_DOUBLE_EQ(metrics::probability_variance(equal.probabilities()), 0.0);
}

TEST(StakeDifficulty, RejectsBadInputs) {
  EXPECT_THROW(StakeDifficulty({}, 100.0), PreconditionError);
  EXPECT_THROW(StakeDifficulty({1, -1}, 100.0), PreconditionError);
  EXPECT_THROW(StakeDifficulty({1, 1}, 0.5), PreconditionError);
  test::TreeBuilder b;
  StakeDifficulty pos({1, 1}, 100.0);
  EXPECT_THROW(pos.difficulty_for(b.tree(), b.tree().genesis_hash(), 2),
               PreconditionError);
}

TEST(StakeDifficulty, DifficultyFloorsAtOne) {
  StakeDifficulty pos({1000000, 1}, 2.0);
  test::TreeBuilder b;
  EXPECT_GE(pos.difficulty_for(b.tree(), b.tree().genesis_hash(), 0), 1.0);
}

AdaptiveConfig pos_config() {
  AdaptiveConfig cfg;
  cfg.n_nodes = 4;
  cfg.delta = 8;
  cfg.expected_interval_s = 2.0;
  cfg.h0 = 1.0;
  cfg.enable_retarget = false;
  return cfg;
}

TEST(ThemisStake, EpochZeroBehavesLikePlainPos) {
  test::TreeBuilder b;
  ThemisStakeDifficulty pos({80, 10, 5, 5}, pos_config());
  // At epoch 0 every multiple is 1, so the election rate (uniform kernel
  // scanning divided by difficulty) is proportional to stake — the plain-PoS
  // starting point that the multiples then renormalize.
  const auto g = b.tree().genesis_hash();
  const double r0 = 1.0 / pos.difficulty_for(b.tree(), g, 0);
  const double r1 = 1.0 / pos.difficulty_for(b.tree(), g, 1);
  EXPECT_NEAR(r0 / r1, 8.0, 1e-9);  // 80 vs 10 stake
}

TEST(ThemisStake, ProbabilitiesEqualizeAtGenesis) {
  test::TreeBuilder b;
  ThemisStakeDifficulty pos({80, 10, 5, 5}, pos_config());
  // rate_i ∝ stake_i / m_i with m = 1 -> probabilities are stake shares at
  // the *mechanism* level, but difficulty_for cancels them; probabilities()
  // reports the residual election bias, which is the raw stake at epoch 0...
  const auto p = pos.probabilities(b.tree(), b.tree().genesis_hash());
  EXPECT_DOUBLE_EQ(p[0], 0.8);
}

TEST(ThemisStake, MultiplesRenormalizeAWinningStaker) {
  test::TreeBuilder b;
  ThemisStakeDifficulty pos({80, 10, 5, 5}, pos_config());
  // Node 0 wins every block of epoch 0 (as its stake edge would predict
  // before the difficulty cancels it).
  std::string parent = "g";
  for (int i = 0; i < 8; ++i) {
    const std::string name = test::numbered("s", i);
    b.add(name, parent, 0);
    parent = name;
  }
  // Epoch 1: node 0's multiple is 4x, so its effective probability drops.
  const auto p = pos.probabilities(b.tree(), b.hash(parent));
  EXPECT_LT(p[0], 0.8);
  const auto d_epoch1 = pos.difficulty_for(b.tree(), b.hash(parent), 0);
  const auto d_epoch0 = pos.difficulty_for(b.tree(), b.tree().genesis_hash(), 0);
  EXPECT_GT(d_epoch1, d_epoch0);
}

TEST(ThemisStake, StakeVectorMustMatchNodeCount) {
  EXPECT_THROW(ThemisStakeDifficulty({1, 1}, pos_config()), PreconditionError);
}

TEST(ThemisStake, RunsARealNetworkAndEqualizesFrequency) {
  // End to end: 4 nodes with a 16:1 stake spread mine under ThemisStake;
  // block frequencies equalize the way Fig. 4 shows for computing power.
  net::Simulation sim;
  net::GossipNetwork network(
      sim, net::LinkConfig{20e6, SimTime::millis(100)}, 4, 2, 77);
  const std::vector<double> stakes{160, 20, 10, 10};

  AdaptiveConfig cfg = pos_config();
  cfg.enable_retarget = true;
  std::vector<std::unique_ptr<consensus::PowNode>> nodes;
  for (ledger::NodeId i = 0; i < 4; ++i) {
    consensus::NodeConfig nc;
    nc.id = i;
    nc.n_nodes = 4;
    // Stake scanning is uniform: every node checks one kernel per second;
    // the stake advantage lives entirely in the difficulty policy's target.
    nc.hash_rate = 1.0;
    nc.rng_seed = 7000 + i;
    nodes.push_back(std::make_unique<consensus::PowNode>(
        sim, network, nc, std::make_shared<GeostRule>(4),
        std::make_shared<ThemisStakeDifficulty>(stakes, cfg)));
  }
  for (auto& n : nodes) n->start();
  sim.run_until(SimTime::seconds(3000.0));

  const auto chain = nodes[0]->main_chain();
  ASSERT_GT(chain.size(), 64u);
  // Frequencies over the last half of the chain.
  std::vector<ledger::NodeId> producers;
  for (std::size_t i = chain.size() / 2; i < chain.size(); ++i) {
    producers.push_back(nodes[0]->tree().block(chain[i])->producer());
  }
  const auto counts = metrics::producer_counts(producers, 4);
  // The richest staker must NOT dominate: every node lands blocks.
  for (int i = 0; i < 4; ++i) EXPECT_GT(counts[i], 0u) << "node " << i;
  const double share0 = static_cast<double>(counts[0]) /
                        static_cast<double>(producers.size());
  EXPECT_LT(share0, 0.55);  // far below its 80 % stake share
}

}  // namespace
}  // namespace themis::core
