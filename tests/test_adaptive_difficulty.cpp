#include "core/adaptive_difficulty.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "tree_builder.h"

namespace themis::core {
namespace {

using test::TreeBuilder;

AdaptiveConfig small_config() {
  AdaptiveConfig cfg;
  cfg.n_nodes = 4;
  cfg.delta = 8;  // beta = 2
  cfg.expected_interval_s = 4.0;
  cfg.h0 = 10.0;
  return cfg;
}

/// Extend the builder with `count` blocks by the given producers (cycled),
/// 1 block per second, returning the tip name.
std::string extend(TreeBuilder& b, const std::string& from,
                   const std::vector<ledger::NodeId>& producers,
                   std::uint64_t count, const std::string& prefix) {
  std::string parent = from;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = prefix + std::to_string(i);
    b.add(name, parent, producers[i % producers.size()]);
    parent = name;
  }
  return parent;
}

TEST(AdaptiveDifficulty, InitialBaseDifficultyFollowsEq7) {
  AdaptiveDifficulty policy(small_config());
  // Eq. 7 with T_0 = T_max: D_base^0 = I_0 * n * H_0 = 4 * 4 * 10.
  EXPECT_DOUBLE_EQ(policy.initial_base_difficulty(), 160.0);
}

TEST(AdaptiveDifficulty, InitialBaseDifficultyOverride) {
  AdaptiveConfig cfg = small_config();
  cfg.initial_base_difficulty = 123.0;
  EXPECT_DOUBLE_EQ(AdaptiveDifficulty(cfg).initial_base_difficulty(), 123.0);
}

TEST(AdaptiveDifficulty, EpochZeroMultiplesAreOne) {
  TreeBuilder b;
  AdaptiveDifficulty policy(small_config());
  const auto& table = policy.table_for(b.tree(), b.tree().genesis_hash());
  EXPECT_EQ(table.epoch, 0u);
  for (const double m : table.multiples) EXPECT_DOUBLE_EQ(m, 1.0);
  // D_i^0 = m_i * D_base^0 for every producer.
  EXPECT_DOUBLE_EQ(
      policy.difficulty_for(b.tree(), b.tree().genesis_hash(), 2), 160.0);
}

TEST(AdaptiveDifficulty, EpochOfParentHeight) {
  TreeBuilder b;
  AdaptiveDifficulty policy(small_config());
  std::string tip = extend(b, "g", {0, 1, 2, 3}, 9, "c");
  // Parent heights 0..7 -> epoch 0; parent height 8 -> epoch 1.
  EXPECT_EQ(policy.epoch_for(b.tree(), b.tree().genesis_hash()), 0u);
  EXPECT_EQ(policy.epoch_for(b.tree(), b.hash("c6")), 0u);  // height 7
  EXPECT_EQ(policy.epoch_for(b.tree(), b.hash("c7")), 1u);  // height 8
  EXPECT_EQ(policy.epoch_for(b.tree(), b.hash("c8")), 1u);  // height 9
}

TEST(AdaptiveDifficulty, Eq6UpdateFromCounts) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.enable_retarget = false;  // isolate the multiple update
  AdaptiveDifficulty policy(cfg);
  // Epoch 0 (8 blocks): node 0 makes 4, node 1 makes 4, nodes 2-3 none.
  extend(b, "g", {0, 1}, 8, "e");
  const auto& table = policy.table_for(b.tree(), b.hash("e7"));
  EXPECT_EQ(table.epoch, 1u);
  // Eq. 6: m = max(n*q/delta * m_prev, 1) = max(4*4/8, 1) = 2 for nodes 0-1,
  // floor 1 for idle nodes.
  EXPECT_DOUBLE_EQ(table.multiples[0], 2.0);
  EXPECT_DOUBLE_EQ(table.multiples[1], 2.0);
  EXPECT_DOUBLE_EQ(table.multiples[2], 1.0);
  EXPECT_DOUBLE_EQ(table.multiples[3], 1.0);
}

TEST(AdaptiveDifficulty, MultiplesCompoundAcrossEpochs) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.enable_retarget = false;
  AdaptiveDifficulty policy(cfg);
  // Two epochs where node 0 produces everything.
  std::string tip = extend(b, "g", {0}, 16, "e");
  const auto& table = policy.table_for(b.tree(), b.hash(tip));
  EXPECT_EQ(table.epoch, 2u);
  // Epoch 1: m0 = 8*4/8 = 4.  Epoch 2: m0 = 4 * 4 = 16.
  EXPECT_DOUBLE_EQ(table.multiples[0], 16.0);
  EXPECT_DOUBLE_EQ(table.multiples[1], 1.0);
}

TEST(AdaptiveDifficulty, FloorKeepsIdleNodesAtBase) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.enable_retarget = false;
  AdaptiveDifficulty policy(cfg);
  extend(b, "g", {0}, 8, "e");
  // Node 3 produced nothing; its difficulty stays at exactly D_base (the
  // §IV-B security floor).
  EXPECT_DOUBLE_EQ(policy.difficulty_for(b.tree(), b.hash("e7"), 3), 160.0);
}

TEST(AdaptiveDifficulty, FloorAblationLetsMultiplesShrink) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.enable_retarget = false;
  cfg.enforce_multiple_floor = false;
  AdaptiveDifficulty policy(cfg);
  // Node 0: 6 of 8 blocks; node 1: 2 of 8.
  extend(b, "g", {0, 0, 0, 1}, 8, "e");
  const auto& table = policy.table_for(b.tree(), b.hash("e7"));
  EXPECT_DOUBLE_EQ(table.multiples[0], 3.0);   // 4*6/8
  EXPECT_DOUBLE_EQ(table.multiples[1], 1.0);   // 4*2/8
  EXPECT_GT(table.multiples[2], 0.0);          // idle but still positive
  EXPECT_LT(table.multiples[2], 1.0e-300);     // collapses without the floor
}

TEST(AdaptiveDifficulty, DifficultyIsAPureFunctionOfTheParentChain) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.enable_retarget = false;
  // Two competing branches across the epoch boundary with different counts.
  extend(b, "g", {0}, 8, "x");    // branch X: all by node 0
  extend(b, "g", {1}, 8, "y");    // branch Y: all by node 1
  AdaptiveDifficulty policy(cfg);
  // Verifiers get different tables depending on which boundary the parent is
  // on — and the same table for the same parent, regardless of query order.
  const double d0_on_x = policy.difficulty_for(b.tree(), b.hash("x7"), 0);
  const double d0_on_y = policy.difficulty_for(b.tree(), b.hash("y7"), 0);
  EXPECT_DOUBLE_EQ(d0_on_x, 4.0 * 160.0);
  EXPECT_DOUBLE_EQ(d0_on_y, 160.0);
  // A second policy instance (another node) agrees exactly.
  AdaptiveDifficulty other(cfg);
  EXPECT_DOUBLE_EQ(other.difficulty_for(b.tree(), b.hash("x7"), 0), d0_on_x);
  EXPECT_DOUBLE_EQ(other.difficulty_for(b.tree(), b.hash("y7"), 0), d0_on_y);
}

TEST(AdaptiveDifficulty, RetargetSpeedsUpSlowChain) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();  // I_0 = 4 s
  AdaptiveDifficulty policy(cfg);
  // Blocks arrive every 8 s (timestamps set by hand): twice too slow.
  std::string parent = "g";
  for (int i = 0; i < 8; ++i) {
    const std::string name = test::numbered("s", i);
    b.add(name, parent, 0, 1.0, static_cast<std::int64_t>((i + 1) * 8e9));
    parent = name;
  }
  const auto& table = policy.table_for(b.tree(), b.hash("s7"));
  // Observed interval 8 s vs expected 4 s -> halve the base difficulty.
  EXPECT_DOUBLE_EQ(table.base_difficulty, 80.0);
}

TEST(AdaptiveDifficulty, RetargetClampBoundsTheJump) {
  TreeBuilder b;
  AdaptiveConfig cfg = small_config();
  cfg.retarget_clamp = 4.0;
  AdaptiveDifficulty policy(cfg);
  // Blocks every 0.1 s: 40x too fast, but the clamp caps the factor at 4.
  std::string parent = "g";
  for (int i = 0; i < 8; ++i) {
    const std::string name = test::numbered("f", i);
    b.add(name, parent, 0, 1.0, static_cast<std::int64_t>((i + 1) * 1e8));
    parent = name;
  }
  const auto& table = policy.table_for(b.tree(), b.hash("f7"));
  EXPECT_DOUBLE_EQ(table.base_difficulty, 640.0);  // 160 * 4
}

TEST(AdaptiveDifficulty, TableIsCachedPerBoundary) {
  TreeBuilder b;
  AdaptiveDifficulty policy(small_config());
  extend(b, "g", {0, 1, 2, 3}, 10, "c");
  const auto& t1 = policy.table_for(b.tree(), b.hash("c8"));
  const auto& t2 = policy.table_for(b.tree(), b.hash("c9"));
  EXPECT_EQ(&t1, &t2);  // same boundary -> same cached table
}

TEST(AdaptiveDifficulty, StorageOverheadMatchesPaper) {
  // §VI-C: one float (m) + one int (q) per node per epoch = 8n bytes.
  AdaptiveDifficulty policy(small_config());
  EXPECT_EQ(policy.storage_overhead_bytes_per_epoch(), 8u * 4u);
}

TEST(AdaptiveDifficulty, RejectsBadConfig) {
  AdaptiveConfig cfg = small_config();
  cfg.n_nodes = 1;
  EXPECT_THROW(AdaptiveDifficulty{cfg}, PreconditionError);
  cfg = small_config();
  cfg.delta = 0;
  EXPECT_THROW(AdaptiveDifficulty{cfg}, PreconditionError);
  cfg = small_config();
  cfg.expected_interval_s = 0;
  EXPECT_THROW(AdaptiveDifficulty{cfg}, PreconditionError);
  cfg = small_config();
  cfg.retarget_clamp = 0.5;
  EXPECT_THROW(AdaptiveDifficulty{cfg}, PreconditionError);
}

TEST(AdaptiveDifficulty, ProducerOutOfRangeThrows) {
  TreeBuilder b;
  AdaptiveDifficulty policy(small_config());
  EXPECT_THROW(policy.difficulty_for(b.tree(), b.tree().genesis_hash(), 4),
               PreconditionError);
}

// Eq. 5: the per-epoch frequency is an unbiased estimator of the
// block-producing probability.  Simulate multinomial epochs and check the
// empirical mean of q_i/delta against p_i.
class MleUnbiasedness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MleUnbiasedness, FrequencyEstimatesProbability) {
  Rng rng(GetParam());
  const std::vector<double> p{0.4, 0.3, 0.2, 0.1};
  const std::uint64_t delta = 64;
  const int epochs = 400;
  std::vector<double> mean_freq(4, 0.0);
  for (int e = 0; e < epochs; ++e) {
    std::vector<std::uint64_t> q(4, 0);
    for (std::uint64_t blk = 0; blk < delta; ++blk) {
      double u = rng.next_double();
      for (std::size_t i = 0; i < 4; ++i) {
        if (u < p[i] || i == 3) {
          ++q[i];
          break;
        }
        u -= p[i];
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      mean_freq[i] += static_cast<double>(q[i]) / static_cast<double>(delta);
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(mean_freq[i] / epochs, p[i], 0.02) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MleUnbiasedness, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace themis::core
