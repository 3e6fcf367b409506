// The benchmark's own tests: every correctness check passes on good
// outputs and fires on a tampered copy of them.
#include <gtest/gtest.h>

#include "checks.h"
#include "common/bytes.h"
#include "state/authstate/merkle_state.h"

namespace perfbench {
namespace {

using themis::Hash32;
using themis::UInt128;
using themis::ledger::TxId;

TxId id_of(std::uint8_t tag) {
  TxId id{};
  id[0] = tag;
  return id;
}

TEST(ExactlyOnce, PassesWhenEveryAckedTxIsOnChainOnce) {
  EXPECT_TRUE(check_exactly_once({id_of(1), id_of(2)},
                                 {id_of(2), id_of(9), id_of(1)})
                  .empty());
}

TEST(ExactlyOnce, FiresOnAMissingTx) {
  EXPECT_FALSE(check_exactly_once({id_of(1), id_of(2)}, {id_of(1)}).empty());
}

TEST(ExactlyOnce, FiresOnATxConfirmedTwice) {
  EXPECT_FALSE(
      check_exactly_once({id_of(1)}, {id_of(1), id_of(3), id_of(1)}).empty());
}

NodeView view(std::uint64_t height, std::uint8_t head, std::uint8_t root,
              std::uint64_t supply) {
  NodeView v;
  v.height = height;
  v.head[0] = head;
  v.state_root[0] = root;
  v.total_supply = UInt128(supply);
  return v;
}

TEST(NodesAgree, PassesOnIdenticalViews) {
  EXPECT_TRUE(
      check_nodes_agree({view(5, 1, 2, 300), view(5, 1, 2, 300)}, UInt128(300))
          .empty());
}

TEST(NodesAgree, FiresOnADifferentStateRoot) {
  EXPECT_FALSE(
      check_nodes_agree({view(5, 1, 2, 300), view(5, 1, 7, 300)}, UInt128(300))
          .empty());
}

TEST(NodesAgree, FiresOnADifferentHead) {
  EXPECT_FALSE(
      check_nodes_agree({view(5, 1, 2, 300), view(6, 4, 2, 300)}, UInt128(300))
          .empty());
}

TEST(NodesAgree, FiresWhenSupplyIsNotConserved) {
  EXPECT_FALSE(check_nodes_agree({view(5, 1, 2, 301)}, UInt128(300)).empty());
  EXPECT_FALSE(
      check_nodes_agree({view(5, 1, 2, 300), view(5, 1, 2, 299)}, UInt128(300))
          .empty());
}

TEST(FinalityAdvanced, FiresWhenTheFinalizedHeightStands) {
  EXPECT_TRUE(check_finality_advanced(16, 48).empty());
  EXPECT_FALSE(check_finality_advanced(16, 16).empty());
}

/// A get_balance {prove:true} result shaped as the gateway writes it.
themis::rpc::Json proof_reply(const themis::state::LedgerState& state,
                              themis::ledger::NodeId id) {
  namespace authstate = themis::state::authstate;
  const auto proof = authstate::prove_account(state, id);
  themis::rpc::Json out;
  out.set("balance", state.account(id).balance.to_decimal());
  out.set("next_nonce", state.account(id).next_nonce);
  out.set("state_root", themis::to_hex(authstate::state_root_of(state)));
  themis::rpc::Json p;
  p.set("available", proof.has_value());
  p.set("page", static_cast<std::uint64_t>(proof->page));
  p.set("page_count", static_cast<std::uint64_t>(proof->page_count));
  p.set("page_bytes", themis::to_hex(proof->page_bytes));
  themis::rpc::Json::Array steps;
  for (const auto& step : proof->steps) {
    themis::rpc::Json s;
    s.set("sibling", themis::to_hex(step.sibling));
    s.set("left", step.sibling_on_left);
    steps.push_back(std::move(s));
  }
  p.set("steps", themis::rpc::Json(std::move(steps)));
  out.set("proof", std::move(p));
  return out;
}

class BalanceProof : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint32_t id = 0; id < 300; ++id) state_.fund(id, UInt128(1000 + id));
  }
  themis::state::LedgerState state_;
};

TEST_F(BalanceProof, PassesOnAnHonestReply) {
  EXPECT_TRUE(check_balance_proof(proof_reply(state_, 130), 130).empty());
}

TEST_F(BalanceProof, FiresOnATamperedBalance) {
  auto reply = proof_reply(state_, 130);
  reply.set("balance", "999999");
  EXPECT_FALSE(check_balance_proof(reply, 130).empty());
}

TEST_F(BalanceProof, FiresOnATamperedPage) {
  auto reply = proof_reply(state_, 130);
  themis::rpc::Json proof = reply["proof"];
  std::string page = proof["page_bytes"].as_string();
  page[page.size() - 1] = page[page.size() - 1] == '0' ? '1' : '0';
  proof.set("page_bytes", page);
  reply.set("proof", proof);
  EXPECT_FALSE(check_balance_proof(reply, 130).empty());
}

TEST_F(BalanceProof, FiresOnAProofForAnotherAccount) {
  EXPECT_FALSE(check_balance_proof(proof_reply(state_, 7), 130).empty());
}

TEST_F(BalanceProof, FiresOnAMalformedReply) {
  EXPECT_FALSE(check_balance_proof(themis::rpc::Json::object({}), 130).empty());
}

SimDigest digest() {
  return SimDigest{.events = 4560777, .tps = 815.8, .blocks = 153, .stale = 33,
                   .producers = "47a18380"};
}

TEST(SimRepeats, PassesOnIdenticalRepetitions) {
  EXPECT_TRUE(check_sim_repeats({digest(), digest()}, digest()).empty());
  EXPECT_TRUE(check_sim_repeats({digest(), digest()}, std::nullopt).empty());
}

TEST(SimRepeats, FiresWhenARepetitionDrifts) {
  SimDigest drifted = digest();
  drifted.stale += 1;
  EXPECT_FALSE(check_sim_repeats({digest(), drifted}, std::nullopt).empty());
}

TEST(SimRepeats, FiresWhenOutputsDifferFromTheRecordedDigest) {
  SimDigest recorded = digest();
  recorded.producers = "00000000";
  EXPECT_FALSE(check_sim_repeats({digest(), digest()}, recorded).empty());
}

}  // namespace
}  // namespace perfbench
