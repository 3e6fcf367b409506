// ChainCore: the §III round and checkpoint finality shared by the simulator
// and the daemon.  Deterministic and socket-free: blocks are hand-built
// (TreeBuilder::make, difficulty 1 against FixedDifficulty(1)), votes are
// unsigned (signatures off, the simulator's mode), and the last case runs a
// small PoxExperiment end to end.
#include "consensus/chain_core.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/power_dist.h"
#include "tree_builder.h"

namespace themis::consensus {
namespace {

using finality::CheckpointVote;
using finality::VoteOutcome;
using test::TreeBuilder;

ChainCore make_core(std::uint64_t checkpoint_interval = 0,
                    std::size_t n_nodes = 4) {
  ChainCoreConfig config;
  config.id = 0;
  config.n_nodes = n_nodes;
  config.checkpoint_interval = checkpoint_interval;
  return ChainCore(config, std::make_shared<GhostRule>(),
                   std::make_shared<FixedDifficulty>(1.0));
}

CheckpointVote vote(std::uint64_t height, const ledger::BlockHash& block,
                    ledger::NodeId voter, std::uint64_t interval) {
  CheckpointVote v;
  v.height = height;
  v.block = block;
  v.epoch = height / interval;
  v.voter = voter;
  return v;
}

std::vector<ledger::BlockHash> ids(
    const std::vector<ledger::BlockPtr>& blocks) {
  std::vector<ledger::BlockHash> out;
  for (const ledger::BlockPtr& b : blocks) out.push_back(b->id());
  return out;
}

TEST(ChainCore, OrphanBatchAdoptedInPowNodeReceiptOrder) {
  TreeBuilder b;
  const auto b1 = b.make("b1", "g", 1);
  const auto c1 = b.make("c1", "b1", 1);
  const auto c2 = b.make("c2", "b1", 2);
  const auto d1 = b.make("d1", "c1", 3);
  ChainCore core = make_core();
  for (const auto& orphan : {c1, c2, d1}) {
    const auto fx = core.add_block(orphan);
    EXPECT_TRUE(fx.orphaned);
    EXPECT_TRUE(fx.inserted.empty());
  }
  // Re-announcing a buffered orphan is a no-op, not a second buffer entry.
  EXPECT_FALSE(core.add_block(c1).orphaned);
  EXPECT_EQ(core.orphan_count(), 3u);

  // The unblocked batch is adopted depth-first, last-arrived sibling first —
  // the order GEOST's receipt tie-break reads.
  const auto fx = core.add_block(b1);
  const std::vector<ledger::BlockHash> expected{b1->id(), c2->id(), c1->id(),
                                                d1->id()};
  EXPECT_EQ(ids(fx.inserted), expected);
  for (std::size_t i = 1; i < expected.size(); ++i) {
    EXPECT_LT(core.tree().receipt_seq(expected[i - 1]),
              core.tree().receipt_seq(expected[i]));
  }
  EXPECT_TRUE(fx.head_changed);
  EXPECT_EQ(core.head(), d1->id());
  EXPECT_EQ(core.orphan_count(), 0u);
  EXPECT_TRUE(core.add_block(c2).duplicate);
}

TEST(ChainCore, InvalidOrphanChildRejectedOnce) {
  TreeBuilder b;
  const auto b1 = b.make("b1", "g", 1);
  const auto bad = b.make("bad", "b1", 2, /*difficulty=*/7.0);  // wrong table
  const auto good = b.make("good", "b1", 3);
  ChainCore core = make_core();
  core.add_block(bad);
  core.add_block(good);
  const auto fx = core.add_block(b1);
  ASSERT_EQ(fx.rejected.size(), 1u);
  EXPECT_EQ(fx.rejected[0]->id(), bad->id());
  EXPECT_EQ(ids(fx.inserted),
            (std::vector<ledger::BlockHash>{b1->id(), good->id()}));
  EXPECT_FALSE(core.tree().contains(bad->id()));

  // A directly submitted invalid block is one rejection too.
  const auto again = core.add_block(bad);
  EXPECT_EQ(again.rejected.size(), 1u);
  EXPECT_TRUE(again.inserted.empty());
}

TEST(ChainCore, OrphanBufferEvictsOldestAtCapacity) {
  // kMaxOrphans + 2 blocks, each waiting on its own unseen parent.
  TreeBuilder b;
  std::vector<ledger::BlockPtr> parents;
  std::vector<ledger::BlockPtr> orphans;
  for (std::size_t i = 0; i < ChainCore::kMaxOrphans + 2; ++i) {
    const std::string p = test::numbered("p", i);
    parents.push_back(b.make(p, "g", 1));
    orphans.push_back(b.make(test::numbered("o", i), p, 2));
  }
  ChainCore core = make_core();
  for (const auto& orphan : orphans) core.add_block(orphan);
  EXPECT_EQ(core.orphan_count(), ChainCore::kMaxOrphans);

  // The two oldest were evicted: their parents arrive alone.
  EXPECT_EQ(core.add_block(parents[0]).inserted.size(), 1u);
  EXPECT_EQ(core.add_block(parents[1]).inserted.size(), 1u);
  // The third-oldest survived and is adopted with its parent.
  EXPECT_EQ(core.add_block(parents[2]).inserted.size(), 2u);
  EXPECT_EQ(core.orphan_count(), ChainCore::kMaxOrphans - 1);
}

TEST(ChainCore, VotesBeforeTheirBlockParkTheCertificate) {
  constexpr std::uint64_t k = 2;
  TreeBuilder b;
  const auto a1 = b.make("a1", "g", 1);
  const auto a2 = b.make("a2", "a1", 1);
  ChainCore core = make_core(k);
  for (ledger::NodeId voter = 1; voter <= 2; ++voter) {
    EXPECT_EQ(*core.add_vote(vote(2, a2->id(), voter, k)).vote,
              VoteOutcome::accepted);
  }
  // Three of four members: quorum, but the block is still unknown.
  const auto quorum = core.add_vote(vote(2, a2->id(), 3, k));
  EXPECT_EQ(*quorum.vote, VoteOutcome::quorum);
  EXPECT_EQ(quorum.certificates, 1u);
  EXPECT_TRUE(quorum.finalized.empty());
  EXPECT_EQ(core.finalized_height(), 0u);

  EXPECT_TRUE(core.add_block(a1).finalized.empty());
  const auto fx = core.add_block(a2);
  ASSERT_EQ(fx.finalized.size(), 1u);
  EXPECT_EQ(fx.finalized[0].block, a2->id());
  EXPECT_EQ(core.finalized_height(), 2u);
  // The certificate landed before our own vote for height 2 could form:
  // heights at or below the finalized one are never voted on.
  EXPECT_TRUE(fx.votes.empty());
}

TEST(ChainCore, CertifiedOffPathBranchForcesSwitchThenVotes) {
  constexpr std::uint64_t k = 2;
  TreeBuilder b;
  // a-branch: heavier under GHOST (five blocks under a1) but only height 3.
  const auto a1 = b.make("a1", "g", 1);
  const auto a2 = b.make("a2", "a1", 1);
  const auto x2 = b.make("x2", "a1", 2);
  const auto y2 = b.make("y2", "a1", 3);
  const auto a3 = b.make("a3", "a2", 1);
  // b-branch: four blocks reaching height 4.
  const auto b1 = b.make("b1", "g", 2);
  const auto b2 = b.make("b2", "b1", 2);
  const auto b3 = b.make("b3", "b2", 2);
  const auto b4 = b.make("b4", "b3", 2);
  ChainCore core = make_core(k);
  std::vector<CheckpointVote> own;
  for (const auto& blk : {a1, a2, x2, y2, a3, b1, b2, b3, b4}) {
    const auto fx = core.add_block(blk);
    own.insert(own.end(), fx.votes.begin(), fx.votes.end());
  }
  ASSERT_EQ(core.head(), a3->id());
  ASSERT_EQ(own.size(), 1u);  // height 2, for a2
  EXPECT_EQ(own[0].block, a2->id());

  core.add_vote(vote(2, b2->id(), 1, k));
  core.add_vote(vote(2, b2->id(), 2, k));
  const auto fx = core.add_vote(vote(2, b2->id(), 3, k));
  EXPECT_TRUE(fx.forced);
  EXPECT_TRUE(fx.head_changed);
  EXPECT_TRUE(fx.reorg);
  EXPECT_EQ(fx.old_head, a3->id());
  EXPECT_EQ(core.head(), b4->id());
  EXPECT_EQ(core.finalized_height(), 2u);
  // The switch covered height 4: the node votes there in the same call
  // instead of waiting for the next block.
  ASSERT_EQ(fx.votes.size(), 1u);
  EXPECT_EQ(fx.votes[0].height, 4u);
  EXPECT_EQ(fx.votes[0].block, b4->id());
}

TEST(ChainCore, OneOwnVotePerHeightEver) {
  constexpr std::uint64_t k = 2;
  TreeBuilder b;
  const auto a1 = b.make("a1", "g", 1);
  const auto a2 = b.make("a2", "a1", 1);
  const auto b1 = b.make("b1", "g", 2);
  const auto b2 = b.make("b2", "b1", 2);
  const auto b3 = b.make("b3", "b2", 2);
  ChainCore core = make_core(k);
  core.add_block(a1);
  EXPECT_EQ(core.add_block(a2).votes.size(), 1u);  // height 2 for a2
  core.add_block(b1);
  core.add_block(b2);
  // b3 reorgs onto the b-branch, which covers height 2 again: voting for b2
  // now would equivocate, so the node stays silent.
  const auto fx = core.add_block(b3);
  EXPECT_TRUE(fx.reorg);
  EXPECT_EQ(core.head(), b3->id());
  EXPECT_TRUE(fx.votes.empty());
  EXPECT_EQ(core.checkpoints()->stats().votes_equivocation, 0u);
  EXPECT_EQ(core.checkpoints()->votes_for(2, a2->id()), 1u);
  EXPECT_EQ(core.checkpoints()->votes_for(2, b2->id()), 0u);
}

TEST(ChainCore, ReorgBelowFinalizedHeightRefused) {
  constexpr std::uint64_t k = 2;
  TreeBuilder b;
  const auto a1 = b.make("a1", "g", 1);
  const auto a2 = b.make("a2", "a1", 1);
  const auto a3 = b.make("a3", "a2", 1);
  ChainCore core = make_core(k);
  for (const auto& blk : {a1, a2, a3}) core.add_block(blk);
  for (ledger::NodeId voter = 1; voter <= 2; ++voter) {
    core.add_vote(vote(2, a2->id(), voter, k));
  }
  ASSERT_EQ(core.finalized_height(), 2u);  // our vote + two more

  // A longer branch forking off below the finalized height loses, whatever
  // its weight.
  std::string prev = "g";
  ChainCore::Effects last;
  for (int i = 1; i <= 6; ++i) {
    const std::string name = test::numbered("z", i);
    last = core.add_block(b.make(name, prev, 3));
    prev = name;
  }
  EXPECT_TRUE(last.below_finalized);
  EXPECT_FALSE(last.head_changed);
  EXPECT_EQ(core.head(), a3->id());
}

TEST(ChainCore, PoxExperimentNodesHardFinalizeTheSameBlocks) {
  sim::PoxConfig config;
  config.algorithm = core::Algorithm::kThemis;
  config.n_nodes = 8;
  config.hash_rates = sim::uniform_power(config.n_nodes, config.h0);
  config.txs_per_block = 0;
  config.checkpoint_interval = 16;
  config.seed = 7;
  sim::PoxExperiment exp(config);
  // Stop between checkpoints, so the last one has certified everywhere.
  exp.run_to_height(88);

  const finality::CheckpointTracker& reference =
      *exp.node(0).core().checkpoints();
  const std::uint64_t finalized = exp.node(0).finalized_height();
  EXPECT_GE(finalized, 64u);
  for (std::size_t i = 0; i < exp.size(); ++i) {
    const PowNode& node = exp.node(i);
    EXPECT_EQ(node.finalized_height(), finalized) << "node " << i;
    EXPECT_GT(node.votes_sent(), 0u) << "node " << i;
    const auto chain = node.main_chain();
    for (std::uint64_t h = 16; h <= finalized; h += 16) {
      const auto* cert = node.core().checkpoints()->certificate(h);
      ASSERT_NE(cert, nullptr) << "node " << i << " height " << h;
      EXPECT_EQ(cert->block, reference.certificate(h)->block);
      EXPECT_EQ(chain.at(h), cert->block) << "node " << i << " height " << h;
    }
  }
}

}  // namespace
}  // namespace themis::consensus
