#include <gtest/gtest.h>

#include "state/double_spend.h"
#include "state/ledger_state.h"
#include "state/transfer.h"
#include "tree_builder.h"

namespace themis::state {
namespace {

using ledger::Transaction;

Transaction transfer_tx(ledger::NodeId from, std::uint64_t nonce,
                        ledger::NodeId to, std::uint64_t amount) {
  return make_transfer_tx(from, nonce, 0, Transfer{to, amount, {}});
}

TEST(Transfer, EncodeDecodeRoundTrip) {
  const Transfer t{3, 1000, bytes_of("invoice #7")};
  const auto decoded = Transfer::decode(t.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, t);
}

TEST(Transfer, ArbitraryPayloadIsNotATransfer) {
  EXPECT_FALSE(Transfer::decode(bytes_of("just some data")).has_value());
  EXPECT_FALSE(Transfer::decode(Bytes{}).has_value());
}

TEST(Transfer, TruncatedTransferRejected) {
  Bytes raw = Transfer{1, 5, {}}.encode();
  raw.pop_back();
  EXPECT_FALSE(Transfer::decode(raw).has_value());
}

TEST(Transfer, TrailingGarbageRejected) {
  Bytes raw = Transfer{1, 5, {}}.encode();
  raw.push_back(0);
  EXPECT_FALSE(Transfer::decode(raw).has_value());
}

TEST(Transfer, TxHelperRoundTrip) {
  const Transaction tx = transfer_tx(1, 1, 2, 500);
  const auto t = transfer_of(tx);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, 2u);
  EXPECT_EQ(t->amount, 500u);
}

TEST(LedgerState, FundingAndBalances) {
  LedgerState state;
  state.fund(0, 1000);
  state.fund(1, 500);
  state.fund(0, 50);
  EXPECT_EQ(state.balance(0), 1050u);
  EXPECT_EQ(state.balance(1), 500u);
  EXPECT_EQ(state.balance(7), 0u);  // untouched accounts read as empty
  EXPECT_EQ(state.total_supply(), 1550u);
}

TEST(LedgerState, TransferMovesValue) {
  LedgerState state;
  state.fund(0, 1000);
  EXPECT_EQ(state.apply(transfer_tx(0, 1, 1, 300)), TxOutcome::applied);
  EXPECT_EQ(state.balance(0), 700u);
  EXPECT_EQ(state.balance(1), 300u);
  EXPECT_EQ(state.total_supply(), 1000u);  // conservation
}

TEST(LedgerState, NonceDisciplineEnforced) {
  LedgerState state;
  state.fund(0, 1000);
  EXPECT_EQ(state.apply(transfer_tx(0, 1, 1, 10)), TxOutcome::applied);
  // Replay (same nonce) and gaps both rejected.
  EXPECT_EQ(state.apply(transfer_tx(0, 1, 1, 10)), TxOutcome::bad_nonce);
  EXPECT_EQ(state.apply(transfer_tx(0, 5, 1, 10)), TxOutcome::bad_nonce);
  EXPECT_EQ(state.apply(transfer_tx(0, 2, 1, 10)), TxOutcome::applied);
  EXPECT_EQ(state.balance(1), 20u);
}

TEST(LedgerState, InsufficientFundsRejectedWithoutSideEffects) {
  LedgerState state;
  state.fund(0, 100);
  const auto before = state.account(0);
  EXPECT_EQ(state.apply(transfer_tx(0, 1, 1, 500)), TxOutcome::insufficient_funds);
  EXPECT_EQ(state.account(0), before);  // nonce did not advance either
  EXPECT_EQ(state.apply(transfer_tx(0, 1, 1, 50)), TxOutcome::applied);
}

TEST(LedgerState, UnknownRecipientRejected) {
  LedgerState state;
  state.fund(0, 100);
  EXPECT_EQ(state.apply(make_transfer_tx(0, 1, 0, Transfer{ledger::kNoNode, 1, {}})),
            TxOutcome::unknown_recipient);
}

TEST(LedgerState, DataOnlyTransactionAdvancesNonce) {
  LedgerState state;
  EXPECT_EQ(state.apply(Transaction(0, 1, 0, bytes_of("audit log entry"))),
            TxOutcome::data_only);
  EXPECT_EQ(state.account(0).next_nonce, 2u);
}

TEST(LedgerState, ApplyBlockCountsSuccesses) {
  LedgerState state;
  state.fund(0, 100);
  std::vector<Transaction> txs{
      transfer_tx(0, 1, 1, 40),
      transfer_tx(0, 2, 1, 1000),  // fails: insufficient
      Transaction(2, 1, 0, bytes_of("note")),
  };
  ledger::BlockHeader h;
  h.tx_count = static_cast<std::uint32_t>(txs.size());
  const ledger::Block block(h, crypto::Signature{}, txs);
  EXPECT_EQ(state.apply_block(block), 2u);
  EXPECT_EQ(state.balance(1), 40u);
}

TEST(LedgerState, OutcomeNames) {
  EXPECT_EQ(to_string(TxOutcome::applied), "applied");
  EXPECT_EQ(to_string(TxOutcome::bad_nonce), "bad_nonce");
  EXPECT_EQ(to_string(TxOutcome::unknown_sender), "unknown_sender");
}

TEST(StateManager, ReplaysMainChain) {
  test::TreeBuilder b;
  // Build blocks carrying real transfers by hand.
  auto make_block = [&](const ledger::BlockPtr& parent,
                        std::vector<Transaction> txs) {
    ledger::BlockHeader h;
    h.height = parent->height() + 1;
    h.prev = parent->id();
    h.producer = 0;
    h.nonce = 1000 + b.tree().size();
    h.tx_count = static_cast<std::uint32_t>(txs.size());
    auto block = std::make_shared<const ledger::Block>(h, crypto::Signature{},
                                                       std::move(txs));
    b.tree().insert(block);
    return block;
  };
  const auto b1 = make_block(b.get("g"), {transfer_tx(0, 1, 1, 100)});
  const auto b2 = make_block(b1, {transfer_tx(1, 1, 2, 60)});

  StateManager manager(std::map<ledger::NodeId, UInt128>{{0, 1000}});
  const LedgerState& at_b1 = manager.state_at(b.tree(), b1->id());
  EXPECT_EQ(at_b1.balance(1), 100u);
  const LedgerState& at_b2 = manager.state_at(b.tree(), b2->id());
  EXPECT_EQ(at_b2.balance(1), 40u);
  EXPECT_EQ(at_b2.balance(2), 60u);
  // The earlier snapshot is unchanged (per-block immutability).
  EXPECT_EQ(manager.state_at(b.tree(), b1->id()).balance(1), 100u);
}

TEST(StateManager, ForkGetsItsOwnState) {
  test::TreeBuilder b;
  auto tx_block = [&](const std::string& parent, std::uint64_t nonce,
                      ledger::NodeId to) {
    const auto p = b.get(parent);
    ledger::BlockHeader h;
    h.height = p->height() + 1;
    h.prev = p->id();
    h.producer = 0;
    h.nonce = 500 + nonce * 7 + to;
    std::vector<Transaction> txs{transfer_tx(0, nonce, to, 10)};
    h.tx_count = 1;
    auto block = std::make_shared<const ledger::Block>(h, crypto::Signature{},
                                                       std::move(txs));
    b.tree().insert(block);
    return block;
  };
  const auto left = tx_block("g", 1, 1);   // pays node 1
  const auto right = tx_block("g", 1, 2);  // conflicting: pays node 2

  StateManager manager(std::map<ledger::NodeId, UInt128>{{0, 100}});
  EXPECT_EQ(manager.state_at(b.tree(), left->id()).balance(1), 10u);
  EXPECT_EQ(manager.state_at(b.tree(), left->id()).balance(2), 0u);
  EXPECT_EQ(manager.state_at(b.tree(), right->id()).balance(2), 10u);
  EXPECT_EQ(manager.state_at(b.tree(), right->id()).balance(1), 0u);
}

// The hard-finality floor only rises: a stale lower certificate cannot drop
// it, and the floor keeps the state of its checkpoint block.
TEST(StateManager, FinalizedFloorIsMonotone) {
  test::TreeBuilder b;
  b.add("a1", "g", 0);
  b.add("a2", "a1", 0);
  b.add("a3", "a2", 0);
  StateManager manager(std::map<ledger::NodeId, UInt128>{{0, 100}});
  EXPECT_EQ(manager.floor(), nullptr);

  manager.set_finalized_floor(b.tree(), b.hash("a2"));
  EXPECT_EQ(manager.finalized_floor(), 2u);
  manager.set_finalized_floor(b.tree(), b.hash("a1"));
  EXPECT_EQ(manager.finalized_floor(), 2u);
  ASSERT_NE(manager.floor(), nullptr);
  EXPECT_EQ(manager.floor()->first, b.hash("a2"));
  EXPECT_EQ(manager.floor()->second, manager.state_at(b.tree(), b.hash("a2")));
}

TEST(StateManager, GenesisState) {
  test::TreeBuilder b;
  StateManager manager(std::map<ledger::NodeId, UInt128>{{0, 42}});
  EXPECT_EQ(manager.state_at(b.tree(), b.tree().genesis_hash()).balance(0), 42u);
}

// The overlay must implement exactly the transition rules of
// LedgerState::apply — same outcomes, same post-state — across every outcome
// class, including the failure paths that touch but do not change accounts.
TEST(ScratchState, DifferentialAgainstDirectApply) {
  LedgerState base;
  base.fund(0, 100);
  base.fund(1, 50);
  const std::vector<Transaction> txs{
      transfer_tx(0, 1, 1, 40),                                   // applied
      transfer_tx(0, 2, 1, 1000),                                 // insufficient
      transfer_tx(0, 3, 1, 10),                                   // bad nonce (gap)
      Transaction(1, 1, 0, bytes_of("note")),                     // data only
      make_transfer_tx(2, 1, 0, Transfer{ledger::kNoNode, 1, {}}),  // unknown to
      transfer_tx(1, 2, 0, 25),                                   // applied
      transfer_tx(0, 2, kMaxAccounts, 1),        // past the id cap: unknown to
      transfer_tx(0, 2, kMaxAccounts - 1, 1),    // last id below it: applied
      transfer_tx(kMaxAccounts, 1, 0, 0),        // sender past the cap
      transfer_tx(1, 3, 1, 5),                   // self-transfer: applied
  };

  LedgerState direct = base;
  ScratchState scratch(base);
  std::vector<TxOutcome> outcomes;
  for (const Transaction& tx : txs) {
    outcomes.push_back(direct.apply(tx));
    EXPECT_EQ(scratch.apply(tx), outcomes.back());
  }
  EXPECT_EQ(outcomes[6], TxOutcome::unknown_recipient);
  EXPECT_EQ(outcomes[7], TxOutcome::applied);
  EXPECT_EQ(outcomes[8], TxOutcome::unknown_sender);
  EXPECT_EQ(direct.page_count(), page_of(kMaxAccounts - 1) + 1);
  LedgerState materialized = base;
  materialized.apply_delta(scratch.take_delta());
  EXPECT_EQ(materialized, direct);
}

TEST(ScratchState, ReadsThroughToBase) {
  LedgerState base;
  base.fund(0, 100);
  ScratchState scratch(base);
  EXPECT_EQ(scratch.account(0).balance, 100u);
  EXPECT_EQ(scratch.apply(transfer_tx(0, 1, 1, 30)), TxOutcome::applied);
  EXPECT_EQ(scratch.account(0).balance, 70u);
  EXPECT_EQ(scratch.account(1).balance, 30u);
  // The base snapshot is untouched — the whole point of the overlay.
  EXPECT_EQ(base.balance(0), 100u);
  EXPECT_EQ(base.balance(1), 0u);
  EXPECT_EQ(scratch.applied(), 1u);
}

TEST(StateManager, DeltaShortCircuitsBodyReplay) {
  test::TreeBuilder b;
  auto make_block = [&](const ledger::BlockPtr& parent,
                        std::vector<Transaction> txs) {
    ledger::BlockHeader h;
    h.height = parent->height() + 1;
    h.prev = parent->id();
    h.producer = 0;
    h.nonce = 2000 + b.tree().size();
    h.tx_count = static_cast<std::uint32_t>(txs.size());
    auto block = std::make_shared<const ledger::Block>(h, crypto::Signature{},
                                                       std::move(txs));
    b.tree().insert(block);
    return block;
  };
  const auto b1 = make_block(b.get("g"), {transfer_tx(0, 1, 1, 100)});

  // Validation-style pass: replay on an overlay of the parent, record delta.
  StateManager manager(std::map<ledger::NodeId, UInt128>{{0, 1000}});
  ScratchState scratch(manager.state_at(b.tree(), b.tree().genesis_hash()));
  for (const Transaction& tx : b1->transactions()) {
    EXPECT_EQ(scratch.apply(tx), TxOutcome::applied);
  }
  manager.record_delta(b1->id(), scratch.take_delta());
  EXPECT_TRUE(manager.has_delta(b1->id()));
  EXPECT_EQ(manager.cached_deltas(), 1u);

  // Materialization through the delta must equal a full body replay.
  StateManager replayed(std::map<ledger::NodeId, UInt128>{{0, 1000}});
  EXPECT_EQ(manager.state_at(b.tree(), b1->id()),
            replayed.state_at(b.tree(), b1->id()));
  EXPECT_EQ(manager.state_at(b.tree(), b1->id()).balance(1), 100u);
}

TEST(DoubleSpend, ValidProofRequiresEquivocation) {
  const auto a = transfer_tx(0, 1, 1, 10);
  const auto c = transfer_tx(0, 1, 2, 10);  // same nonce, different payee
  EXPECT_TRUE((DoubleSpendProof{a, c}.valid()));
  EXPECT_FALSE((DoubleSpendProof{a, a}.valid()));  // identical tx
  const auto other_sender = transfer_tx(1, 1, 2, 10);
  EXPECT_FALSE((DoubleSpendProof{a, other_sender}.valid()));
  const auto other_nonce = transfer_tx(0, 2, 2, 10);
  EXPECT_FALSE((DoubleSpendProof{a, other_nonce}.valid()));
}

TEST(DoubleSpend, FoundAcrossTwoBlocks) {
  const auto a = transfer_tx(0, 1, 1, 10);
  const auto c = transfer_tx(0, 1, 2, 10);
  const auto proof = find_double_spend({transfer_tx(3, 1, 1, 5), a}, {c});
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(proof->valid());
  EXPECT_EQ(proof->first.sender(), 0u);
}

TEST(DoubleSpend, SameTxInBothBlocksIsNotEquivocation) {
  const auto a = transfer_tx(0, 1, 1, 10);
  EXPECT_FALSE(find_double_spend({a}, {a}).has_value());
}

TEST(DoubleSpend, FoundWithinOneBlock) {
  const auto a = transfer_tx(0, 3, 1, 10);
  const auto c = transfer_tx(0, 3, 2, 99);
  ASSERT_TRUE(find_double_spend({a, c}).has_value());
  EXPECT_FALSE(find_double_spend({a}).has_value());
}

TEST(DoubleSpend, ProofSerializationRoundTrip) {
  const DoubleSpendProof proof{transfer_tx(0, 1, 1, 10), transfer_tx(0, 1, 2, 10)};
  const auto decoded = DoubleSpendProof::decode(proof.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->valid());
  EXPECT_EQ(decoded->first, proof.first);
  EXPECT_EQ(decoded->second, proof.second);
}

TEST(DoubleSpend, DecodeRejectsInvalidOrMalformed) {
  EXPECT_FALSE(DoubleSpendProof::decode(Bytes(100, 0)).has_value());
  // A structurally valid encoding of a non-equivocation must also fail.
  const auto a = transfer_tx(0, 1, 1, 10);
  const DoubleSpendProof bogus{a, a};
  EXPECT_FALSE(DoubleSpendProof::decode(bogus.encode()).has_value());
}

TEST(DoubleSpend, DescribeNamesTheOffender) {
  const DoubleSpendProof proof{transfer_tx(7, 1, 1, 10), transfer_tx(7, 1, 2, 10)};
  EXPECT_NE(proof.describe().find("node 7"), std::string::npos);
}

}  // namespace
}  // namespace themis::state
