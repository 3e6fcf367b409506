// Quickstart: a four-member consortium running Themis end to end on the
// REAL code paths — actual SHA-256d proof-of-work, Schnorr header signatures,
// the full §III validation pipeline, the Eq. 6 difficulty table, and the
// GEOST main-chain rule.  No simulator, no shortcuts: everything a real
// deployment would execute per block runs here (at a low difficulty so it
// finishes instantly).
//
//   build/examples/quickstart
#include <cstdio>
#include <memory>

#include "consensus/miner.h"
#include "core/adaptive_difficulty.h"
#include "core/geost.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "ledger/blocktree.h"
#include "ledger/txpool.h"
#include "ledger/validation.h"
#include "nodeset/contract.h"

using namespace themis;

namespace {

constexpr std::size_t kMembers = 4;
constexpr std::uint64_t kDelta = 8;  // tiny epochs so the demo shows an update

struct Member {
  ledger::NodeId id;
  crypto::Keypair keys;
};

}  // namespace

int main() {
  std::printf("Themis quickstart: 4-member consortium, real PoW + signatures\n\n");

  // 1. Consortium membership: identities registered in the NodeSetContract.
  std::vector<Member> members;
  std::vector<nodeset::NodeIdentity> identities;
  for (ledger::NodeId i = 0; i < kMembers; ++i) {
    members.push_back({i, crypto::Keypair::from_node_id(i)});
    identities.push_back({i, members.back().keys.public_key(),
                          "node" + std::to_string(i) + ".consortium.example"});
  }
  nodeset::NodeSetContract contract(identities);
  std::printf("consortium formed with %zu members\n", contract.member_count());

  // 2. The shared difficulty policy (Eq. 6/7).  Low H_0 keeps real mining
  //    instant; every node would derive this same table from the chain.
  core::AdaptiveConfig adaptive;
  adaptive.n_nodes = kMembers;
  adaptive.delta = kDelta;
  adaptive.expected_interval_s = 1.0;
  adaptive.h0 = 4.0;
  core::AdaptiveDifficulty difficulty(adaptive);
  std::printf("basic difficulty D_base^0 = %.0f (Eq. 7: I0*n*H0)\n\n",
              difficulty.initial_base_difficulty());

  // 3. A transaction pool fed by the members.
  ledger::TxPool pool;
  for (std::uint64_t i = 0; i < 64; ++i) {
    pool.add({ledger::Transaction(static_cast<ledger::NodeId>(i % kMembers), i,
                                  static_cast<std::int64_t>(i) * 100,
                                  bytes_of("transfer #" + std::to_string(i)))});
  }
  std::printf("transaction pool primed with %zu canonical 512-byte txs\n\n",
              pool.size());

  // 4. Mine two epochs of blocks.  Producers rotate unevenly on purpose so
  //    the epoch-1 difficulty table visibly adjusts.
  ledger::BlockTree tree;
  core::GeostRule geost(kMembers);
  ledger::BlockHash head = tree.genesis_hash();

  const ledger::ValidationContext ctx{
      .public_key =
          [&](ledger::NodeId id) { return contract.key_of(id); },
      .expected_difficulty =
          [&](ledger::NodeId producer, const ledger::BlockHash& parent)
          -> std::optional<double> {
        if (!tree.contains(parent)) return std::nullopt;
        return difficulty.difficulty_for(tree, parent, producer);
      },
      .parent_height =
          [&](const ledger::BlockHash& parent) -> std::optional<std::uint64_t> {
        if (!tree.contains(parent)) return std::nullopt;
        return tree.height(parent);
      },
  };

  for (std::uint64_t round = 0; round < 2 * kDelta; ++round) {
    // Node election: an unequal rotation — node 0 wins half the rounds.
    const Member& producer = members[(round % 2 == 0) ? 0 : 1 + (round / 2) % 3];

    ledger::BlockHeader header;
    header.height = tree.height(head) + 1;
    header.prev = head;
    header.producer = producer.id;
    header.epoch = difficulty.epoch_for(tree, head);
    header.difficulty = difficulty.difficulty_for(tree, head, producer.id);
    header.timestamp_nanos = static_cast<std::int64_t>(round) * 1'000'000'000;

    auto txs = pool.select(2);
    header.tx_count = static_cast<std::uint32_t>(txs.size());
    std::vector<Hash32> leaves;
    for (const auto& tx : txs) leaves.push_back(tx.id());
    header.merkle_root = crypto::merkle_root(leaves);

    // Solve the real puzzle: grind sha256d(header) below T_0 / D_i.
    const auto mined = consensus::RealMiner::mine(header, 0, 1u << 24);
    if (!mined) {
      std::printf("round %2llu: mining budget exhausted (unexpected)\n",
                  static_cast<unsigned long long>(round));
      return 1;
    }
    const crypto::Signature signature = producer.keys.sign(mined->hash());
    auto block =
        std::make_shared<const ledger::Block>(*mined, signature, std::move(txs));

    // Receiver-side §III pipeline: membership, signature, difficulty, PoW,
    // merkle commitment, transactions.
    const ledger::BlockCheck verdict = ledger::validate_block(*block, ctx);
    if (verdict != ledger::BlockCheck::ok) {
      std::printf("round %2llu: block rejected (%s)\n",
                  static_cast<unsigned long long>(round),
                  std::string(ledger::to_string(verdict)).c_str());
      return 1;
    }
    std::vector<ledger::TxId> confirmed;
    for (const auto& tx : block->transactions()) confirmed.push_back(tx.id());
    pool.remove(confirmed);

    tree.insert(block);
    head = geost.choose_head(tree, tree.genesis_hash());

    std::printf(
        "round %2llu: node %u mined height %llu  D=%6.1f nonce=%-8llu id=%.16s\n",
        static_cast<unsigned long long>(round), producer.id,
        static_cast<unsigned long long>(block->height()), mined->difficulty,
        static_cast<unsigned long long>(mined->nonce),
        to_hex(block->id()).c_str());
  }

  // 5. Show the self-adaptive adjustment: after epoch 0, node 0 (which won
  //    half the blocks) gets a proportionally higher difficulty multiple.
  const auto& table = difficulty.table_for(tree, head);
  std::printf("\nepoch %u difficulty multiples (Eq. 6):\n", table.epoch);
  for (ledger::NodeId i = 0; i < kMembers; ++i) {
    std::printf("  node %u: m_i = %.3f  ->  D_i = %.1f\n", i,
                table.multiples[i], table.multiples[i] * table.base_difficulty);
  }

  std::printf("\nmain chain (GEOST): height %llu, %zu blocks, pool has %zu txs left\n",
              static_cast<unsigned long long>(tree.height(head)),
              tree.chain_to(head).size(), pool.size());
  std::printf("storage overhead per epoch (§VI-C): %zu bytes network-wide\n",
              difficulty.storage_overhead_bytes_per_epoch());
  return 0;
}
