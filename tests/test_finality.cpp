// Checkpoint finality overlay: vote/certificate codecs, the tracker's vote
// discipline under adversarial inputs, the >2/3 quorum boundary, both
// aggregation backends, and HeadTracker's hard-finality guarantees.
#include <gtest/gtest.h>

#include "common/serialize.h"
#include "consensus/head_tracker.h"
#include "core/geost.h"
#include "finality/aggregation.h"
#include "finality/checkpoint.h"
#include "finality/tracker.h"
#include "tree_builder.h"

namespace themis::finality {
namespace {

using consensus::HeadTracker;
using test::TreeBuilder;

ledger::BlockHash block_hash(std::uint8_t tag) {
  ledger::BlockHash h{};
  h[0] = tag;
  return h;
}

CheckpointVote signed_vote(std::uint64_t height, const ledger::BlockHash& block,
                           std::uint64_t interval, ledger::NodeId voter) {
  CheckpointVote vote;
  vote.height = height;
  vote.block = block;
  vote.epoch = height / interval;
  vote.voter = voter;
  vote.signature =
      crypto::Keypair::from_node_id(voter).sign(vote.digest());
  return vote;
}

CheckpointTracker make_tracker(std::size_t n, std::uint64_t interval = 16,
                               std::uint8_t backend = ConcatAggregation::kId,
                               bool verify = true) {
  TrackerConfig config;
  config.interval = interval;
  config.verify_signatures = verify;
  return CheckpointTracker(config, ValidatorSet::deterministic(n),
                           make_backend(backend));
}

// ---------------------------------------------------------------- codecs --

TEST(CheckpointCodec, VoteRoundTrip) {
  const CheckpointVote vote = signed_vote(32, block_hash(7), 16, 2);
  const Bytes raw = vote.encode();
  EXPECT_EQ(CheckpointVote::decode(raw), vote);
}

TEST(CheckpointCodec, VoteRejectsTruncatedAndTrailing) {
  const Bytes raw = signed_vote(16, block_hash(1), 16, 0).encode();
  for (std::size_t len = 0; len < raw.size(); ++len) {
    EXPECT_THROW(CheckpointVote::decode(ByteSpan(raw.data(), len)),
                 DecodeError)
        << "accepted a " << len << "-byte prefix";
  }
  Bytes trailing = raw;
  trailing.push_back(0);
  EXPECT_THROW(CheckpointVote::decode(trailing), DecodeError);
}

TEST(CheckpointCodec, VoterOutsideDigestButInsideVoteId) {
  const CheckpointVote a = signed_vote(16, block_hash(1), 16, 0);
  const CheckpointVote b = signed_vote(16, block_hash(1), 16, 1);
  EXPECT_EQ(a.digest(), b.digest());      // backends combine over one digest
  EXPECT_NE(a.vote_id(), b.vote_id());    // gossip dedups per voter
}

TEST(CheckpointCodec, CertificateRoundTrip) {
  CheckpointCertificate cert;
  cert.height = 48;
  cert.block = block_hash(9);
  cert.epoch = 3;
  cert.backend = HalfAggregation::kId;
  cert.voters = {0, 2, 3};
  cert.aggregate = Bytes{1, 2, 3, 4};
  const Bytes raw = cert.encode();
  EXPECT_EQ(CheckpointCertificate::decode(raw), cert);
}

TEST(CheckpointCodec, CertificateRejectsUnsortedVoters) {
  CheckpointCertificate cert;
  cert.height = 16;
  cert.block = block_hash(1);
  cert.epoch = 1;
  cert.voters = {2, 1};
  const Bytes raw = cert.encode();
  EXPECT_THROW(CheckpointCertificate::decode(raw), DecodeError);
  cert.voters = {1, 1};
  EXPECT_THROW(CheckpointCertificate::decode(cert.encode()), DecodeError);
}

// --------------------------------------------------- tracker discipline --

TEST(CheckpointTracker, QuorumFormsCertificate) {
  CheckpointTracker tracker = make_tracker(4);
  const ledger::BlockHash block = block_hash(1);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 0)),
            VoteOutcome::accepted);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 1)),
            VoteOutcome::accepted);
  EXPECT_EQ(tracker.finalized_height(), 0u);
  // Third vote carries weight 3 of 4: 3*3 > 2*4 — quorum.
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 2)),
            VoteOutcome::quorum);
  EXPECT_EQ(tracker.finalized_height(), 16u);
  ASSERT_TRUE(tracker.finalized_block().has_value());
  EXPECT_EQ(*tracker.finalized_block(), block);
  const CheckpointCertificate* cert = tracker.certificate(16);
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->voters, (std::vector<ledger::NodeId>{0, 1, 2}));
  EXPECT_TRUE(tracker.backend().verify(*cert, tracker.validators()));
  EXPECT_EQ(tracker.stats().certificates_formed, 1u);
}

TEST(CheckpointTracker, ExactlyTwoThirdsIsNotQuorum) {
  // n = 3: two votes are exactly 2/3 — the strict rule demands MORE.
  CheckpointTracker tracker = make_tracker(3);
  const ledger::BlockHash block = block_hash(1);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 0)),
            VoteOutcome::accepted);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 1)),
            VoteOutcome::accepted);
  EXPECT_EQ(tracker.finalized_height(), 0u);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 2)),
            VoteOutcome::quorum);
}

TEST(CheckpointTracker, DuplicateVoteDoesNotDoubleCount) {
  CheckpointTracker tracker = make_tracker(4);
  const CheckpointVote vote = signed_vote(16, block_hash(1), 16, 0);
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::accepted);
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::duplicate);
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::duplicate);
  EXPECT_EQ(tracker.votes_for(16, block_hash(1)), 1u);
  EXPECT_EQ(tracker.stats().votes_duplicate, 2u);
}

TEST(CheckpointTracker, EquivocationRejectedFirstVoteStands) {
  CheckpointTracker tracker = make_tracker(4);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block_hash(1), 16, 0)),
            VoteOutcome::accepted);
  // Same voter, same height, different block: rejected, not counted.
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block_hash(2), 16, 0)),
            VoteOutcome::equivocation);
  EXPECT_EQ(tracker.votes_for(16, block_hash(1)), 1u);
  EXPECT_EQ(tracker.votes_for(16, block_hash(2)), 0u);
  EXPECT_EQ(tracker.stats().votes_equivocation, 1u);
}

TEST(CheckpointTracker, UnknownVoterRejected) {
  CheckpointTracker tracker = make_tracker(4);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block_hash(1), 16, 9)),
            VoteOutcome::unknown_voter);
  EXPECT_EQ(tracker.votes_for(16, block_hash(1)), 0u);
}

TEST(CheckpointTracker, BadSignatureRejected) {
  CheckpointTracker tracker = make_tracker(4);
  CheckpointVote vote = signed_vote(16, block_hash(1), 16, 0);
  vote.signature.s[0] ^= 1;
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::bad_signature);
  // A signature by the wrong key is just as dead.
  CheckpointVote wrong_key = signed_vote(16, block_hash(1), 16, 1);
  wrong_key.voter = 2;
  EXPECT_EQ(tracker.add_vote(wrong_key), VoteOutcome::bad_signature);
  EXPECT_EQ(tracker.votes_for(16, block_hash(1)), 0u);
}

TEST(CheckpointTracker, BadHeightAndEpochRejected) {
  CheckpointTracker tracker = make_tracker(4);
  // Not a multiple of the interval.
  EXPECT_EQ(tracker.add_vote(signed_vote(17, block_hash(1), 17, 0)),
            VoteOutcome::bad_height);
  // Height 0 is never a checkpoint.
  EXPECT_EQ(tracker.add_vote(signed_vote(0, block_hash(1), 16, 0)),
            VoteOutcome::bad_height);
  // Right height, wrong epoch tag.
  CheckpointVote vote;
  vote.height = 16;
  vote.block = block_hash(1);
  vote.epoch = 2;  // should be 1
  vote.voter = 0;
  vote.signature = crypto::Keypair::from_node_id(0).sign(vote.digest());
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::bad_height);
}

TEST(CheckpointTracker, StaleBelowFinalized) {
  CheckpointTracker tracker = make_tracker(4);
  const ledger::BlockHash b32 = block_hash(2);
  for (ledger::NodeId voter = 0; voter < 3; ++voter) {
    tracker.add_vote(signed_vote(32, b32, 16, voter));
  }
  ASSERT_EQ(tracker.finalized_height(), 32u);
  // A vote for the already-finalized checkpoint (or below) is stale.
  EXPECT_EQ(tracker.add_vote(signed_vote(32, b32, 16, 3)),
            VoteOutcome::stale);
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block_hash(1), 16, 3)),
            VoteOutcome::stale);
  // Higher checkpoints still count.
  EXPECT_EQ(tracker.add_vote(signed_vote(48, block_hash(3), 16, 3)),
            VoteOutcome::accepted);
}

TEST(CheckpointTracker, FinalizationIsMonotone) {
  CheckpointTracker tracker = make_tracker(4);
  const ledger::BlockHash b32 = block_hash(2);
  const ledger::BlockHash b16 = block_hash(1);
  // Finalize height 32 first (gossip delivers checkpoints out of order).
  for (ledger::NodeId voter = 0; voter < 3; ++voter) {
    tracker.add_vote(signed_vote(32, b32, 16, voter));
  }
  EXPECT_EQ(tracker.finalized_height(), 32u);
  // A late quorum at 16 must not roll the finalized height back.
  EXPECT_EQ(tracker.add_vote(signed_vote(16, b16, 16, 3)),
            VoteOutcome::stale);
  EXPECT_EQ(tracker.finalized_height(), 32u);
}

TEST(CheckpointTracker, RetainedVotesCoverLatestCheckpoint) {
  CheckpointTracker tracker = make_tracker(4);
  const ledger::BlockHash b16 = block_hash(1);
  for (ledger::NodeId voter = 0; voter < 3; ++voter) {
    tracker.add_vote(signed_vote(16, b16, 16, voter));
  }
  // The finalized checkpoint's votes are retained so a freshly connected
  // peer can be brought to quorum by inventory offer alone.
  const std::vector<CheckpointVote> votes = tracker.retained_votes();
  EXPECT_EQ(votes.size(), 3u);
  CheckpointTracker peer = make_tracker(4);
  VoteOutcome last = VoteOutcome::accepted;
  for (const CheckpointVote& vote : votes) last = peer.add_vote(vote);
  EXPECT_EQ(last, VoteOutcome::quorum);
  EXPECT_EQ(peer.finalized_height(), 16u);
}

TEST(CheckpointTracker, MakeVoteSignsVerifiably) {
  CheckpointTracker tracker = make_tracker(4);
  const crypto::Keypair keypair = crypto::Keypair::from_node_id(1);
  const CheckpointVote vote =
      tracker.make_vote(16, block_hash(1), keypair, 1);
  EXPECT_EQ(tracker.add_vote(vote), VoteOutcome::accepted);
}

// --------------------------------------------------------------- backends --

class BackendTest : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(BackendTest, AggregateVerifies) {
  const std::size_t n = 5;  // quorum at 4: 3*4 > 2*5
  CheckpointTracker tracker = make_tracker(n, 16, GetParam());
  const ledger::BlockHash block = block_hash(1);
  for (ledger::NodeId voter = 0; voter < 3; ++voter) {
    EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, voter)),
              VoteOutcome::accepted);
  }
  EXPECT_EQ(tracker.add_vote(signed_vote(16, block, 16, 3)),
            VoteOutcome::quorum);
  const CheckpointCertificate* cert = tracker.certificate(16);
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->backend, GetParam());
  const ValidatorSet validators = ValidatorSet::deterministic(n);
  EXPECT_TRUE(make_backend(GetParam())->verify(*cert, validators));
  // Survives a wire round trip.
  EXPECT_TRUE(make_backend(GetParam())->verify(
      CheckpointCertificate::decode(cert->encode()), validators));
}

TEST_P(BackendTest, TamperedCertificateFailsVerify) {
  const std::size_t n = 4;
  CheckpointTracker tracker = make_tracker(n, 16, GetParam());
  const ledger::BlockHash block = block_hash(1);
  for (ledger::NodeId voter = 0; voter < 3; ++voter) {
    tracker.add_vote(signed_vote(16, block, 16, voter));
  }
  const CheckpointCertificate* cert = tracker.certificate(16);
  ASSERT_NE(cert, nullptr);
  const ValidatorSet validators = ValidatorSet::deterministic(n);
  const auto backend = make_backend(GetParam());

  CheckpointCertificate bad = *cert;
  bad.aggregate[0] ^= 1;  // flipped signature byte
  EXPECT_FALSE(backend->verify(bad, validators));

  bad = *cert;
  bad.block = block_hash(2);  // certificate claims a different block
  EXPECT_FALSE(backend->verify(bad, validators));

  bad = *cert;
  bad.voters = {0, 1};  // sub-quorum voter set, aggregate untouched
  EXPECT_FALSE(backend->verify(bad, validators));

  bad = *cert;
  bad.voters.push_back(9);  // non-member voter
  EXPECT_FALSE(backend->verify(bad, validators));

  bad = *cert;
  bad.backend = GetParam() == ConcatAggregation::kId ? HalfAggregation::kId
                                                     : ConcatAggregation::kId;
  EXPECT_FALSE(backend->verify(bad, validators));  // wrong backend id
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(ConcatAggregation::kId,
                                           HalfAggregation::kId),
                         [](const auto& info) {
                           return info.param == ConcatAggregation::kId
                                      ? std::string("Concat")
                                      : std::string("Half");
                         });

TEST(Backends, HalfAggregationHalvesTheSize) {
  const std::size_t n = 7;  // quorum at 5
  CheckpointTracker concat = make_tracker(n, 16, ConcatAggregation::kId);
  CheckpointTracker half = make_tracker(n, 16, HalfAggregation::kId);
  const ledger::BlockHash block = block_hash(1);
  for (ledger::NodeId voter = 0; voter < 5; ++voter) {
    concat.add_vote(signed_vote(16, block, 16, voter));
    half.add_vote(signed_vote(16, block, 16, voter));
  }
  ASSERT_NE(concat.certificate(16), nullptr);
  ASSERT_NE(half.certificate(16), nullptr);
  EXPECT_EQ(concat.certificate(16)->aggregate.size(), 64u * 5);
  EXPECT_EQ(half.certificate(16)->aggregate.size(), 32u * (5 + 1));
}

TEST(Backends, MakeBackendByNameAndId) {
  EXPECT_EQ(make_backend("concat")->id(), ConcatAggregation::kId);
  EXPECT_EQ(make_backend("half")->id(), HalfAggregation::kId);
  EXPECT_EQ(make_backend("nope"), nullptr);
  EXPECT_EQ(make_backend(std::uint8_t{0xff}), nullptr);
}

// ----------------------------------------------------- HeadTracker floor --

TEST(HeadTrackerFinality, ReorgBelowFinalizedRefused) {
  TreeBuilder b;
  b.add("a1", "g", 0);
  b.add("a2", "a1", 1);
  b.add("a3", "a2", 2);
  const consensus::LongestChainRule rule;
  HeadTracker tracker;
  tracker.reset(b.tree(), rule, b.tree().genesis_hash(), 64);
  ASSERT_EQ(tracker.head(), b.hash("a3"));

  EXPECT_FALSE(tracker.set_finalized(b.tree(), rule, b.hash("a2")));
  EXPECT_EQ(tracker.finalized_height(), 2u);

  // A longer branch diverging at height 1 — below the finalized height —
  // must be refused no matter its weight.
  b.add("b2", "a1", 3);
  b.add("b3", "b2", 3);
  b.add("b4", "b3", 3);
  b.add("b5", "b4", 3);
  const auto update = tracker.on_insert(b.tree(), rule, b.hash("b2"));
  EXPECT_FALSE(update.head_changed);
  EXPECT_TRUE(update.below_finalized);
  EXPECT_EQ(tracker.head(), b.hash("a3"));

  // Extending the finalized branch still works.
  b.add("a4", "a3", 0);
  EXPECT_TRUE(tracker.on_insert(b.tree(), rule, b.hash("a4")).head_changed);
  EXPECT_EQ(tracker.head(), b.hash("a4"));
}

TEST(HeadTrackerFinality, CertifiedOffPathBranchForcesSwitch) {
  TreeBuilder b;
  b.add("a1", "g", 0);
  b.add("a2", "a1", 1);
  b.add("a3", "a2", 2);
  b.add("b1", "g", 3);
  b.add("b2", "b1", 3);
  const consensus::LongestChainRule rule;
  HeadTracker tracker;
  tracker.reset(b.tree(), rule, b.tree().genesis_hash(), 64);
  ASSERT_EQ(tracker.head(), b.hash("a3"));  // a-branch is longer

  // The consortium certified b2: hard finality outranks local fork choice.
  EXPECT_TRUE(tracker.set_finalized(b.tree(), rule, b.hash("b2")));
  EXPECT_EQ(tracker.head(), b.hash("b2"));
  EXPECT_EQ(tracker.finalized_height(), 2u);

  // The abandoned (heavier) a-branch now diverges below the finalized
  // height and can never win again.
  b.add("a4", "a3", 0);
  const auto update = tracker.on_insert(b.tree(), rule, b.hash("a4"));
  EXPECT_FALSE(update.head_changed);
  EXPECT_TRUE(update.below_finalized);

  // set_finalized is monotone: re-finalizing at or below is a no-op.
  EXPECT_FALSE(tracker.set_finalized(b.tree(), rule, b.hash("a2")));
  EXPECT_EQ(tracker.head(), b.hash("b2"));
}

TEST(HeadTrackerFinality, AnchorNeverTrailsBelowFinalized) {
  TreeBuilder b;
  std::string prev = "g";
  for (int i = 1; i <= 6; ++i) {
    const std::string name = test::numbered("a", i);
    b.add(name, prev, 0);
    prev = name;
  }
  const consensus::LongestChainRule rule;
  HeadTracker tracker;
  // finality_depth 64 would keep the anchor at genesis forever…
  tracker.reset(b.tree(), rule, b.tree().genesis_hash(), 64);
  EXPECT_EQ(tracker.anchor_height(), 0u);
  // …but hard finality drags it up to the certified height.
  tracker.set_finalized(b.tree(), rule, b.hash("a4"));
  EXPECT_EQ(tracker.anchor_height(), 4u);
  EXPECT_EQ(tracker.anchor(), b.hash("a4"));
  ASSERT_NE(tracker.path_block_at(5), nullptr);
  EXPECT_EQ(*tracker.path_block_at(5), b.hash("a5"));
  EXPECT_EQ(tracker.path_block_at(3), nullptr);  // below the anchor
}

}  // namespace
}  // namespace themis::finality
