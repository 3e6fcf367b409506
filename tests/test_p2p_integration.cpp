// Loopback network integration: real sockets, real PoW, durable stores.
//
// The headline scenario mirrors the issue's acceptance criterion: four
// in-process nodes on ephemeral ports mine at low difficulty until they
// converge on one head; one node is killed; the survivors mine past its
// head; the node restarts from its datadir, replays its store, re-syncs
// past the head it missed and resumes mining.
//
// Convergence strategy: fork-choice ties (equal-weight subtrees) are broken
// by *local* receipt order, so two nodes can legitimately disagree while
// mining is paused on a tie.  The helper therefore pauses mining, waits for
// announcements to settle, and briefly resumes mining when heads still
// differ — the next block breaks the tie.  Timeouts are generous because CI
// runs this under TSan (~10x slowdown).
#include "p2p/node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "finality/aggregation.h"
#include "ledger/block_store.h"
#include "rpc/gateway.h"
#include "state/authstate/merkle_state.h"
#include "state/transfer.h"

namespace themis::p2p {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr double kTestDifficulty = 6000.0;  // ~instant native, ok under TSan

class P2pIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("themis_p2p_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(root_);
  }
  void TearDown() override {
    for (auto& node : nodes_) {
      if (node) node->stop();
    }
    nodes_.clear();
    fs::remove_all(root_);
  }

  P2pNodeConfig base_config(std::size_t id, std::size_t n_nodes) {
    P2pNodeConfig config;
    config.id = static_cast<ledger::NodeId>(id);
    config.n_nodes = n_nodes;
    config.listen_port = 0;  // ephemeral
    config.datadir = root_ / ("node" + std::to_string(id));
    config.difficulty = kTestDifficulty;
    config.rng_seed = 1000 + id;
    config.ping_interval_ms = 500;
    config.backoff_initial_ms = 50;
    config.backoff_max_ms = 500;
    config.checkpoint_interval = ckpt_interval_;
    config.finality_backend = finality_backend_;
    return config;
  }

  /// Start a node dialing every node already started.
  P2pNode* start_node(std::size_t id, std::size_t n_nodes, bool mine = true) {
    P2pNodeConfig config = base_config(id, n_nodes);
    config.mine = mine;
    for (const auto& node : nodes_) {
      if (!node) continue;
      config.peers.push_back("127.0.0.1:" +
                             std::to_string(node->listen_port()));
    }
    auto node = std::make_unique<P2pNode>(std::move(config));
    if (nodes_.size() <= id) nodes_.resize(id + 1);
    nodes_[id] = std::move(node);
    EXPECT_TRUE(nodes_[id]->start());
    return nodes_[id].get();
  }

  std::vector<P2pNode*> live_nodes() {
    std::vector<P2pNode*> out;
    for (auto& node : nodes_) {
      if (node) out.push_back(node.get());
    }
    return out;
  }

  static bool wait_until(std::function<bool()> pred,
                         std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(20ms);
    }
    return pred();
  }

  static bool heads_equal(const std::vector<P2pNode*>& nodes) {
    for (const P2pNode* node : nodes) {
      if (node->head() != nodes.front()->head()) return false;
    }
    return true;
  }

  /// Drive the network until every node reports the same head at height >=
  /// min_height.  Leaves mining PAUSED on success so the converged state is
  /// stable for assertions.
  static bool converge(const std::vector<P2pNode*>& nodes,
                       std::uint64_t min_height,
                       std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const bool tall_enough = [&] {
        for (const P2pNode* node : nodes) {
          if (node->head_height() < min_height) return false;
        }
        return true;
      }();
      if (!tall_enough) {
        std::this_thread::sleep_for(50ms);
        continue;
      }
      for (P2pNode* node : nodes) node->set_mining(false);
      // Mining is off: once in-flight announcements drain, heads are final.
      if (wait_until([&] { return heads_equal(nodes); }, 5s)) return true;
      // A genuine fork-choice tie: resume mining, the next block breaks it.
      for (P2pNode* node : nodes) node->set_mining(true);
      std::this_thread::sleep_for(100ms);
    }
    return false;
  }

  fs::path root_;
  std::vector<std::unique_ptr<P2pNode>> nodes_;
  /// Checkpoint-finality knobs picked up by base_config (the default 16 is
  /// taller than most tests mine, so the overlay stays out of their way).
  std::uint64_t ckpt_interval_ = 16;
  std::string finality_backend_ = "concat";
};

TEST_F(P2pIntegrationTest, TwoNodesConnectAndExchangeLiveBlocks) {
  P2pNode* a = start_node(0, 2);
  P2pNode* b = start_node(1, 2);

  ASSERT_TRUE(wait_until(
      [&] { return a->ready_peer_count() == 1 && b->ready_peer_count() == 1; },
      30s));
  ASSERT_TRUE(converge({a, b}, 3, 120s));

  EXPECT_EQ(a->head(), b->head());
  EXPECT_GE(a->head_height(), 3u);
  // Both mined and both persisted: blocks flowed in each direction.
  EXPECT_GT(a->store_blocks() + b->store_blocks(), 0u);
  const auto stats_a = a->chain_stats();
  const auto stats_b = b->chain_stats();
  EXPECT_GT(stats_a.blocks_produced + stats_b.blocks_produced, 0u);
  EXPECT_GT(stats_a.blocks_received + stats_b.blocks_received, 0u);
}

TEST_F(P2pIntegrationTest, LateJoinerCatchesUpViaRangeSync) {
  // Node 0 mines alone to height >= 6, then a non-mining node appears and
  // must catch up purely through the locator/getblocks protocol.
  P2pNode* a = start_node(0, 2);
  ASSERT_TRUE(wait_until([&] { return a->head_height() >= 6; }, 120s));
  a->set_mining(false);

  // Compare against a's live head: a block solved just as mining was paused
  // may still land after this point, so a static snapshot could go stale.
  P2pNode* b = start_node(1, 2, /*mine=*/false);
  ASSERT_TRUE(wait_until([&] { return b->head() == a->head(); }, 60s));
  EXPECT_EQ(b->head_height(), a->head_height());
  EXPECT_GE(b->head_height(), 6u);

  const auto stats = b->chain_stats();
  EXPECT_GE(stats.sync_rounds, 1u);
  EXPECT_EQ(stats.blocks_produced, 0u);
  // Everything it received is persisted for the next restart.
  EXPECT_EQ(b->store_blocks(), b->tree_blocks() - 1);  // store has no genesis
}

TEST_F(P2pIntegrationTest, FourNodesConvergeKillOneRestartAndRecover) {
  constexpr std::size_t kNodes = 4;
  for (std::size_t i = 0; i < kNodes; ++i) start_node(i, kNodes);

  // Full mesh: every node ends up with 3 ready peers.
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->ready_peer_count() < kNodes - 1) return false;
        }
        return true;
      },
      60s));

  ASSERT_TRUE(converge(live_nodes(), 3, 240s)) << "initial convergence";
  const std::uint64_t killed_height = nodes_[3]->head_height();
  const auto killed_head = nodes_[3]->head();

  // Kill node 3 (clean stop; the store survives in its datadir).
  nodes_[3]->stop();
  nodes_[3].reset();

  // Survivors mine past the dead node's head.
  for (P2pNode* node : live_nodes()) node->set_mining(true);
  ASSERT_TRUE(converge(live_nodes(), killed_height + 3, 240s))
      << "survivors advancing past the killed node";
  const auto survivor_height = nodes_[0]->head_height();
  ASSERT_GT(survivor_height, killed_height);

  // Restart node 3 from its datadir, dialing the three survivors.
  P2pNode* revived = start_node(3, kNodes, /*mine=*/false);
  const auto revived_stats = revived->chain_stats();
  EXPECT_GE(revived_stats.store_replayed, killed_height)
      << "store replay must rebuild the pre-kill chain";
  EXPECT_GE(revived->head_height(), killed_height)
      << "replayed chain must reach the pre-kill head";
  EXPECT_TRUE(revived->contains(killed_head));

  // It must re-sync past the head it missed.  Converge on live heads rather
  // than waiting for a snapshot: a block solved just as the previous
  // converge() paused mining may land after the snapshot and move the
  // survivors' head (and an in-flight sibling pair can even leave them
  // tied), so only the converge helper's pause/settle/resume loop is a
  // reliable target.
  ASSERT_TRUE(converge(live_nodes(), survivor_height, 240s))
      << "revived node must catch up to the survivors";
  EXPECT_GE(revived->head_height(), survivor_height);

  // ...and rejoin mining: with everyone else paused, the next blocks are its.
  revived->set_mining(true);
  ASSERT_TRUE(wait_until(
      [&] { return revived->chain_stats().blocks_produced > 0; }, 120s))
      << "revived node must mine again";
  revived->set_mining(false);  // freeze so propagation is a stable target
  ASSERT_TRUE(wait_until(
      [&] {
        return nodes_[0]->head_height() > survivor_height &&
               heads_equal(live_nodes());
      },
      120s))
      << "revived node's blocks must propagate back to the survivors";

  // Redundant-announce accounting is live on every node.
  for (P2pNode* node : live_nodes()) {
    const auto stats = node->chain_stats();
    EXPECT_LE(stats.invs_redundant, stats.invs_received);
  }
}

// Concurrent submitters each verify on their own thread and meet at the
// consensus lock: every valid transaction must come back `accepted` exactly
// once, a forged signature mixed into a batch must fail alone (per-item
// fallback after the batched check), and duplicates must be flagged.  TSan
// (ctest regex 'P2pIntegration') checks the pool and stamps stay under it.
TEST_F(P2pIntegrationTest, BatchAdmissionSettlesConcurrentSubmitters) {
  P2pNodeConfig config = base_config(0, 16);
  config.mine = false;
  P2pNode node(std::move(config));
  ASSERT_TRUE(node.start());

  constexpr int kSenders = 8;
  constexpr std::uint64_t kEach = 25;
  std::atomic<int> accepted{0};
  std::atomic<int> bad_sig{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSenders; ++s) {
    clients.emplace_back([&, s] {
      for (std::uint64_t n = 1; n <= kEach; ++n) {
        auto stx = ledger::sign_transaction(
            ledger::Transaction(static_cast<ledger::NodeId>(s), n, 0, {}));
        if (s == 0 && n == kEach) {
          // One forged signature rides a batch full of valid ones.
          stx.signature.s[0] ^= 0x01;
          if (node.submit_transaction(stx) == TxAdmit::bad_signature) {
            bad_sig.fetch_add(1);
          }
        } else if (node.submit_transaction(stx) == TxAdmit::accepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(accepted.load(), kSenders * kEach - 1);
  EXPECT_EQ(bad_sig.load(), 1);

  // Re-submitting a pooled transaction reports `duplicate`.
  const auto dup = ledger::sign_transaction(ledger::Transaction(2, 1, 0, {}));
  EXPECT_EQ(node.submit_transaction(dup), TxAdmit::duplicate);

  const auto stats = node.chain_stats();
  EXPECT_EQ(stats.txs_accepted, static_cast<std::uint64_t>(kSenders) * kEach - 1);
  EXPECT_GE(stats.txs_rejected, 1u);   // the forgery
  EXPECT_GE(stats.txs_duplicate, 1u);  // the re-submission
  node.stop();
}

TEST_F(P2pIntegrationTest, StateRootsAgreeAcrossNodes) {
  // Deterministic state commitment: two nodes that converge on the same head
  // must report bit-identical Merkle state roots, and either node's balance
  // proof must verify against that common root.
  P2pNode* a = start_node(0, 2);
  P2pNode* b = start_node(1, 2);
  ASSERT_TRUE(wait_until(
      [&] { return a->ready_peer_count() == 1 && b->ready_peer_count() == 1; },
      30s));

  // Some transfers so the state is not just the genesis allocation.
  for (std::uint64_t n = 1; n <= 3; ++n) {
    const auto stx = ledger::sign_transaction(state::make_transfer_tx(
        0, n, static_cast<std::int64_t>(n), state::Transfer{1, 10 * n, {}}));
    ASSERT_EQ(a->submit_transaction(stx), TxAdmit::accepted);
  }
  ASSERT_TRUE(wait_until(
      [&] { return b->account_info(1).balance ==
                   UInt128(b->config().genesis_fund + 60); },
      120s))
      << "transfers must confirm on the remote node";
  ASSERT_TRUE(converge({a, b}, 3, 240s));

  ASSERT_EQ(a->head(), b->head());
  const Hash32 root_a = a->head_state_root();
  const Hash32 root_b = b->head_state_root();
  EXPECT_EQ(root_a, root_b);
  EXPECT_NE(root_a, Hash32{});

  // A proof served by either node verifies against the shared root.
  for (P2pNode* node : {a, b}) {
    const auto bp = node->balance_proof(1);
    ASSERT_TRUE(bp.available);
    EXPECT_EQ(bp.state_root, root_a);
    EXPECT_EQ(bp.account.balance, UInt128(node->config().genesis_fund + 60));
    EXPECT_TRUE(state::authstate::verify_account_proof(root_a, 1, bp.account,
                                                       bp.proof));
  }
}

TEST_F(P2pIntegrationTest, SnapshotPruneRestartServesVerifiedProofs) {
  // A one-member consortium certifies its own checkpoints.  A snapshotting
  // and pruning node must write snapshots of the certified floor as it
  // advances, prune its store below them, restart from the snapshot instead
  // of genesis replay, and keep serving balance proofs that verify.
  ckpt_interval_ = 2;
  P2pNodeConfig config = base_config(0, 1);
  config.mine = true;
  config.snapshot_interval = 2;
  config.prune = true;
  nodes_.resize(1);
  nodes_[0] = std::make_unique<P2pNode>(std::move(config));
  P2pNode* node = nodes_[0].get();
  ASSERT_TRUE(node->start());

  for (std::uint64_t n = 1; n <= 3; ++n) {
    const auto stx = ledger::sign_transaction(state::make_transfer_tx(
        0, n, static_cast<std::int64_t>(n), state::Transfer{1, 100, {}}));
    ASSERT_EQ(node->submit_transaction(stx), TxAdmit::accepted);
  }
  ASSERT_TRUE(wait_until(
      [&] {
        const auto stats = node->chain_stats();
        return node->head_height() >= 10 && stats.snapshots_written >= 1 &&
               stats.txs_confirmed >= 3;
      },
      240s))
      << "snapshot must be written once the certified floor advances";
  node->set_mining(false);
  // Account 1 is not a member here, so genesis leaves it unfunded.
  const UInt128 expected_balance(300);
  ASSERT_TRUE(wait_until(
      [&] { return node->account_info(1).balance == expected_balance; }, 60s));

  // Read the stats only once stop() has joined the miner: a block solved
  // while mining was being switched off can still land and write a snapshot.
  node->stop();
  const auto pre = node->chain_stats();
  EXPECT_GE(pre.snapshot_height, 2u);
  EXPECT_LE(pre.snapshot_height, pre.finalized_height)
      << "only a certified block is snapshotted";
  EXPECT_GT(pre.blocks_pruned, 0u);
  nodes_[0].reset();

  // Restart from the same datadir: the snapshot re-roots the tree, so the
  // store's pruned prefix is never needed.
  P2pNodeConfig restarted = base_config(0, 1);
  restarted.mine = false;
  restarted.snapshot_interval = 2;
  restarted.prune = true;
  nodes_[0] = std::make_unique<P2pNode>(std::move(restarted));
  node = nodes_[0].get();
  ASSERT_TRUE(node->start());

  const auto stats = node->chain_stats();
  EXPECT_TRUE(stats.restored_from_snapshot);
  EXPECT_EQ(stats.snapshot_height, pre.snapshot_height);
  EXPECT_GE(node->head_height(), pre.snapshot_height);
  // Only the suffix above the snapshot was replayed.
  EXPECT_LT(stats.store_replayed, node->head_height());
  EXPECT_EQ(node->account_info(1).balance, expected_balance);

  const auto bp = node->balance_proof(1);
  ASSERT_TRUE(bp.available);
  EXPECT_EQ(bp.account.balance, expected_balance);
  EXPECT_TRUE(state::authstate::verify_account_proof(bp.state_root, 1,
                                                     bp.account, bp.proof));
}

TEST_F(P2pIntegrationTest, MemberWithoutQuorumNeverSnapshotsItsOwnBranch) {
  // Member 0 of a four-member consortium mines alone: its votes never reach
  // a quorum, so nothing is certified.  However far its branch runs, it
  // must write no snapshot and prune nothing (a certificate could still
  // switch it to another branch), and a restart replays the full store.
  ckpt_interval_ = 2;
  P2pNodeConfig config = base_config(0, 4);
  config.mine = true;
  config.snapshot_interval = 2;
  config.prune = true;
  nodes_.resize(1);
  nodes_[0] = std::make_unique<P2pNode>(std::move(config));
  P2pNode* node = nodes_[0].get();
  ASSERT_TRUE(node->start());
  ASSERT_TRUE(wait_until([&] { return node->head_height() > 40; }, 240s));
  node->stop();
  const auto pre = node->chain_stats();
  const std::uint64_t height = node->head_height();
  EXPECT_EQ(pre.finalized_height, 0u);
  EXPECT_EQ(pre.snapshots_written, 0u);
  EXPECT_EQ(pre.blocks_pruned, 0u);
  EXPECT_FALSE(fs::exists(root_ / "node0" / "state.snap"));
  nodes_[0].reset();

  P2pNodeConfig restarted = base_config(0, 4);
  restarted.mine = false;
  restarted.snapshot_interval = 2;
  restarted.prune = true;
  nodes_[0] = std::make_unique<P2pNode>(std::move(restarted));
  node = nodes_[0].get();
  ASSERT_TRUE(node->start());
  const auto stats = node->chain_stats();
  EXPECT_FALSE(stats.restored_from_snapshot);
  EXPECT_EQ(stats.store_replayed, height);
  EXPECT_EQ(node->head_height(), height);
}

TEST_F(P2pIntegrationTest, SnapshotsNeedCheckpointFinality) {
  ckpt_interval_ = 0;
  P2pNodeConfig config = base_config(0, 1);
  config.snapshot_interval = 2;
  EXPECT_THROW(P2pNode node(std::move(config)), PreconditionError);
}

// --- checkpoint finality over real sockets -----------------------------------

TEST_F(P2pIntegrationTest, FourNodesHardFinalizeCheckpointsEveryInterval) {
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kInterval = 4;
  ckpt_interval_ = kInterval;
  finality_backend_ = "half";  // exercise half-aggregation over the wire
  for (std::size_t i = 0; i < kNodes; ++i) start_node(i, kNodes);
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->ready_peer_count() < kNodes - 1) return false;
        }
        return true;
      },
      60s));

  // Mine until every node has formed at least two quorum certificates and
  // hard-finalized past the second checkpoint height.  (Two certificates,
  // not just finalized >= 2k: fast mining can race the head past several
  // checkpoint boundaries before the first votes land, so the first quorum
  // ever formed may already sit above height 2k.)
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->finality_info().finalized_height < 2 * kInterval ||
              node->chain_stats().ckpt_certs_formed < 2) {
            return false;
          }
        }
        return true;
      },
      240s))
      << "every node must hard-finalize checkpoints as the chain grows";
  for (P2pNode* node : live_nodes()) node->set_mining(false);

  const finality::ValidatorSet validators =
      finality::ValidatorSet::deterministic(kNodes);
  std::map<std::uint64_t, ledger::BlockHash> certified;  // height -> block
  std::uint64_t total_votes_sent = 0;
  for (P2pNode* node : live_nodes()) {
    const auto info = node->finality_info();
    EXPECT_TRUE(info.enabled);
    EXPECT_EQ(info.interval, kInterval);
    EXPECT_EQ(info.finalized_height % kInterval, 0u);
    EXPECT_EQ(info.head_height - info.finalized_height, info.lag);

    // The certificate the node finalized on (a late-syncing node may have
    // skipped straight past the first checkpoint, so ask for its own
    // finalized height): carries quorum, verifies offline against the
    // deterministic consortium keys — exactly what `themis-cli checkpoint`
    // does — and any two nodes certifying the same height name the same
    // block.
    const auto cert = node->checkpoint_certificate(info.finalized_height);
    ASSERT_TRUE(cert.has_value());
    EXPECT_EQ(cert->height, info.finalized_height);
    EXPECT_EQ(cert->backend, finality::HalfAggregation::kId);
    EXPECT_GE(cert->voters.size(), 3u);
    EXPECT_TRUE(
        finality::make_backend(cert->backend)->verify(*cert, validators));
    const auto it = certified.emplace(cert->height, cert->block).first;
    EXPECT_EQ(it->second, cert->block);
    EXPECT_TRUE(node->contains(cert->block));

    const auto stats = node->chain_stats();
    // >= rather than ==: in-flight votes may finalize a further checkpoint
    // between the finality_info() and chain_stats() snapshots.
    EXPECT_GE(stats.finalized_height, info.finalized_height);
    EXPECT_EQ(stats.finalized_height % kInterval, 0u);
    EXPECT_GE(stats.ckpt_certs_formed, 2u);
    EXPECT_GE(stats.ckpt_votes_accepted, 2u);
    total_votes_sent += stats.ckpt_votes_sent;
  }
  // Quorum is 3-of-4, so one perpetually-lagging node may never vote (every
  // checkpoint it reaches is already finalized, hence stale) — but across
  // the consortium at least a quorum's worth of votes must have been sent.
  EXPECT_GE(total_votes_sent, 3u);
}

TEST_F(P2pIntegrationTest, PartitionedMinorityCannotFinalize) {
  // Two nodes of a registered four-member consortium: their votes carry 2/4
  // of the weight, never strictly more than 2/3 — no checkpoint may
  // finalize, no matter how long their partition mines.
  ckpt_interval_ = 2;
  P2pNode* a = start_node(0, 4);
  P2pNode* b = start_node(1, 4);
  ASSERT_TRUE(wait_until(
      [&] { return a->ready_peer_count() == 1 && b->ready_peer_count() == 1; },
      30s));
  ASSERT_TRUE(converge({a, b}, 5, 240s));  // well past two checkpoint heights

  for (P2pNode* node : {a, b}) {
    const auto info = node->finality_info();
    EXPECT_TRUE(info.enabled);
    EXPECT_EQ(info.finalized_height, 0u) << "minority must not finalize";
    const auto stats = node->chain_stats();
    EXPECT_EQ(stats.ckpt_certs_formed, 0u);
    EXPECT_GE(stats.ckpt_votes_sent, 1u);      // they do vote...
    EXPECT_GE(stats.ckpt_votes_accepted, 1u);  // ...and count each other
  }
}

TEST_F(P2pIntegrationTest, ReorgBelowFinalizedRefusedOnEveryNode) {
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kInterval = 4;
  ckpt_interval_ = kInterval;

  // Phase 1: node 3 mines a private branch from genesis, alone.  Its solo
  // votes never reach quorum (1/4 of the weight).
  start_node(3, kNodes);
  ASSERT_TRUE(wait_until([&] { return nodes_[3]->head_height() >= 9; }, 240s));
  nodes_[3]->set_mining(false);
  const auto solo_head = nodes_[3]->head();
  EXPECT_EQ(nodes_[3]->finality_info().finalized_height, 0u);
  nodes_[3]->stop();
  nodes_[3].reset();

  // Phase 2: the majority (3 of 4) mines its own branch and hard-finalizes
  // the first checkpoint.
  for (std::size_t i = 0; i < 3; ++i) start_node(i, kNodes);
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->ready_peer_count() < 2) return false;
        }
        return true;
      },
      60s));
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->finality_info().finalized_height < kInterval) return false;
        }
        return true;
      },
      240s))
      << "majority must finalize its branch";
  ASSERT_TRUE(converge(live_nodes(), kInterval, 240s));

  // Phase 3: node 3 returns carrying its private branch (replayed from its
  // datadir), which diverges at genesis — below the finalized checkpoint.
  P2pNode* revived = start_node(3, kNodes, /*mine=*/false);

  // Every majority node receives the solo branch and refuses the reorg: the
  // branch diverges below hard finality, so fork choice never sees it.
  // (A block mined in-flight at converge()'s pause can still land and move
  // every majority head in lockstep, so assert branch identity — the head
  // never lands on the solo branch — rather than an exact head snapshot.)
  ASSERT_TRUE(wait_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (nodes_[i]->chain_stats().reorgs_refused_finality == 0) {
            return false;
          }
        }
        return true;
      },
      240s))
      << "every majority node must count the refused reorg";
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(nodes_[i]->finality_info().finalized_height, kInterval);
    EXPECT_NE(nodes_[i]->head(), solo_head)
        << "node " << i << " must keep the finalized branch";
  }

  // The returning node is pulled onto the certified branch by the retained
  // votes (quorum re-forms locally, the certificate force-switches the head
  // off its private branch — hard finality outranks its local fork choice)
  // and ends up agreeing with the majority.
  ASSERT_TRUE(wait_until(
      [&] {
        return revived->finality_info().finalized_height >= kInterval &&
               revived->head() != solo_head && heads_equal(live_nodes());
      },
      240s))
      << "returning node must force-switch onto the certified chain";
  EXPECT_TRUE(revived->contains(solo_head));  // branch kept, just dethroned
}

// --- resident history -----------------------------------------------------

std::string address_of(const P2pNode& node) {
  return "127.0.0.1:" + std::to_string(node.listen_port());
}

/// One JSON-RPC call straight through Gateway::handle; returns the reply.
Json rpc_call(rpc::Gateway& gateway, const std::string& method,
                   Json params) {
  Json body;
  body.set("jsonrpc", "2.0");
  body.set("id", 1);
  body.set("method", method);
  body.set("params", std::move(params));
  rpc::HttpRequest request;
  request.method = "POST";
  request.target = "/";
  request.body = body.dump();
  return Json::parse(gateway.handle(request).body);
}

TEST_F(P2pIntegrationTest, FinalizedBodiesAreServedFromTheStore) {
  // A consortium of four: node 0 mines, node 1 follows with a datadir, node 2
  // follows memory-only; their three votes are a quorum.  Node 3 joins last.
  // One miner keeps the chain fork-free.
  constexpr std::size_t kNodes = 4;
  ckpt_interval_ = 2;
  P2pNode* miner = start_node(0, kNodes);
  P2pNode* follower = start_node(1, kNodes, /*mine=*/false);
  P2pNodeConfig memory_config = base_config(2, kNodes);
  memory_config.datadir.clear();
  memory_config.mine = false;
  memory_config.peers = {address_of(*miner), address_of(*follower)};
  nodes_.resize(3);
  nodes_[2] = std::make_unique<P2pNode>(std::move(memory_config));
  ASSERT_TRUE(nodes_[2]->start());
  P2pNode* memory = nodes_[2].get();
  const std::vector<P2pNode*> trio{miner, follower, memory};
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : trio) {
          if (node->ready_peer_count() < 2) return false;
        }
        return true;
      },
      60s));

  std::vector<ledger::Transaction> transfers;
  for (std::uint64_t n = 1; n <= 4; ++n) {
    const auto stx = ledger::sign_transaction(state::make_transfer_tx(
        0, n, static_cast<std::int64_t>(n), state::Transfer{1, 10 * n, {}}));
    ASSERT_EQ(miner->submit_transaction(stx), TxAdmit::accepted);
    transfers.push_back(stx.tx);
  }
  // Mine until every transfer sits a few certificates deep on every node.
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : trio) {
          const std::uint64_t finalized =
              node->finality_info().finalized_height;
          for (const ledger::Transaction& tx : transfers) {
            const auto status = node->tx_status(tx.id());
            if (status.state != P2pNode::TxStatusInfo::State::confirmed ||
                status.block_height + 3 * ckpt_interval_ > finalized) {
              return false;
            }
          }
        }
        return true;
      },
      240s))
      << "transfers must confirm and finalize on every node";
  miner->set_mining(false);
  ASSERT_TRUE(wait_until([&] { return heads_equal(trio); }, 60s));
  const std::uint64_t head_height = miner->head_height();

  // The memory-only node keeps every body: count the main chain's.
  std::uint64_t with_body = 0;
  for (std::uint64_t h = 1; h <= head_height; ++h) {
    const auto info = memory->block_info_at(h);
    ASSERT_TRUE(info.has_value());
    with_body += info->block->transactions().empty() ? 0 : 1;
  }
  EXPECT_GT(with_body, 0u);
  EXPECT_EQ(memory->chain_stats().bodies_resident, with_body);

  for (P2pNode* node : {miner, follower}) {
    // One lock hold: the count and the finalized height agree.
    const auto stats = node->chain_stats();
    EXPECT_GT(stats.finalized_height, 0u);
    EXPECT_LE(stats.bodies_resident,
              node->head_height() - stats.finalized_height);
    EXPECT_LT(stats.bodies_resident, with_body);
    EXPECT_GE(stats.txs_indexed, transfers.size());

    // Every main-chain block comes back whole, byte-identical to its store
    // record (read from a copy: the node keeps its own files open).
    const fs::path copy = root_ / ("copy" + std::to_string(node->config().id));
    fs::create_directories(copy);
    for (const char* file : {"blocks.dat", "blocks.dat.idx"}) {
      fs::copy_file(node->config().datadir / file, copy / file);
    }
    const ledger::BlockStore store(copy / "blocks.dat");
    for (std::uint64_t h = 1; h <= head_height; ++h) {
      const auto info = node->block_info_at(h);
      ASSERT_TRUE(info.has_value()) << "height " << h;
      const auto record = store.read_by_id(info->block->id());
      ASSERT_TRUE(record.has_value()) << "height " << h;
      EXPECT_EQ(info->block->encode(), record->encode()) << "height " << h;
      EXPECT_EQ(info->block->encode(),
                memory->block_info_at(h)->block->encode());
      const auto by_hash = node->block_info(info->block->id());
      ASSERT_TRUE(by_hash.has_value());
      EXPECT_EQ(by_hash->block->encode(), record->encode());
    }

    // A finalized transfer still answers get_tx in full, and get_txs.
    rpc::Gateway gateway(*node);
    Json::Array ids;
    for (const ledger::Transaction& tx : transfers) {
      const auto status = node->tx_status(tx.id());
      ASSERT_EQ(status.state, P2pNode::TxStatusInfo::State::confirmed);
      EXPECT_LE(status.block_height, stats.finalized_height);
      ASSERT_TRUE(status.tx.has_value());
      EXPECT_EQ(*status.tx, tx);
      ids.push_back(Json(to_hex(tx.id())));
    }
    Json params;
    params.set("ids", Json(std::move(ids)));
    const Json reply = rpc_call(gateway, "get_txs", std::move(params));
    const Json::Array& states = reply["result"]["states"].as_array();
    ASSERT_EQ(states.size(), transfers.size());
    for (const Json& state : states) {
      EXPECT_EQ(state.as_string(), "confirmed");
    }
  }

  // A node started now syncs the whole chain from the two datadir peers,
  // whose finalized bodies come from their stores.
  P2pNodeConfig late_config = base_config(3, kNodes);
  late_config.mine = false;
  late_config.peers = {address_of(*miner), address_of(*follower)};
  nodes_.resize(4);
  nodes_[3] = std::make_unique<P2pNode>(std::move(late_config));
  ASSERT_TRUE(nodes_[3]->start());
  P2pNode* late = nodes_[3].get();
  ASSERT_TRUE(wait_until([&] { return late->head() == miner->head(); }, 120s))
      << "a fresh node must sync past the released bodies";
  for (std::uint64_t h = 1; h <= head_height; ++h) {
    const auto info = late->block_info_at(h);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->block->encode(), memory->block_info_at(h)->block->encode());
  }
  for (const ledger::Transaction& tx : transfers) {
    EXPECT_EQ(late->tx_status(tx.id()).state,
              P2pNode::TxStatusInfo::State::confirmed);
  }
}

TEST_F(P2pIntegrationTest, ReleasedAndPrunedBlocksAreNotFound) {
  // A single-member consortium finalizes alone; snapshots prune the store.
  // A transfer's block ends up both released from the tree and pruned from
  // the store: its body exists nowhere on this node any more.
  ckpt_interval_ = 2;
  P2pNodeConfig config = base_config(0, 1);
  config.snapshot_interval = 2;
  config.prune = true;
  nodes_.resize(1);
  nodes_[0] = std::make_unique<P2pNode>(std::move(config));
  P2pNode* node = nodes_[0].get();
  ASSERT_TRUE(node->start());
  const auto stx = ledger::sign_transaction(
      state::make_transfer_tx(0, 1, 1, state::Transfer{1, 10, {}}));
  ASSERT_EQ(node->submit_transaction(stx), TxAdmit::accepted);
  const ledger::TxId id = stx.tx.id();
  ASSERT_TRUE(wait_until(
      [&] {
        const auto status = node->tx_status(id);
        const auto stats = node->chain_stats();
        return status.state == P2pNode::TxStatusInfo::State::confirmed &&
               stats.finalized_height >= status.block_height &&
               stats.snapshot_height > status.block_height &&
               stats.blocks_pruned > 0;
      },
      240s));
  node->set_mining(false);
  EXPECT_LE(node->chain_stats().snapshot_height,
            node->chain_stats().finalized_height)
      << "only a certified block is snapshotted";

  const auto status = node->tx_status(id);
  ASSERT_TRUE(status.block.has_value());
  EXPECT_FALSE(status.tx.has_value()) << "the body is gone";
  EXPECT_FALSE(node->block_info(*status.block).has_value());
  EXPECT_FALSE(node->block_info_at(status.block_height).has_value());
  EXPECT_TRUE(node->contains(*status.block)) << "the header stays in the tree";
  EXPECT_TRUE(node->block_info(node->head()).has_value());

  rpc::Gateway gateway(*node);
  Json params;
  params.set("height", status.block_height);
  const Json reply = rpc_call(gateway, "get_block", std::move(params));
  ASSERT_TRUE(reply.has("error"));
  EXPECT_EQ(reply["error"]["message"].as_string(), "block not found");
}

TEST_F(P2pIntegrationTest, ConfirmedTransfersLeaveNoRequestsInFlight) {
  // Every node admits transfers from its own account and relays them by
  // inv/getdata while node 0 mines fast, so a transfer often confirms on its
  // announcer before the announcer answers a getdata for it.  Once every
  // transfer has confirmed and load has stopped, no request may still wait
  // for an object that will never come.
  constexpr std::size_t kNodes = 3;
  constexpr std::uint64_t kBatches = 6;
  constexpr std::uint64_t kBatch = 50;
  for (std::size_t i = 0; i < kNodes; ++i) start_node(i, kNodes, i == 0);
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->ready_peer_count() < kNodes - 1) return false;
        }
        return true;
      },
      60s));

  std::vector<ledger::TxId> ids;
  for (std::uint64_t batch = 0; batch < kBatches; ++batch) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::vector<ledger::SignedTransaction> stxs;
      for (std::uint64_t k = 1; k <= kBatch; ++k) {
        const std::uint64_t nonce = batch * kBatch + k;
        const auto to = static_cast<ledger::NodeId>((i + 1) % kNodes);
        stxs.push_back(ledger::sign_transaction(state::make_transfer_tx(
            static_cast<ledger::NodeId>(i), nonce,
            static_cast<std::int64_t>(nonce), state::Transfer{to, 1, {}})));
        ids.push_back(stxs.back().tx.id());
      }
      for (const TxAdmit verdict : nodes_[i]->submit_transactions(stxs)) {
        ASSERT_EQ(verdict, TxAdmit::accepted);
      }
    }
  }
  ASSERT_TRUE(wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          for (const auto state : node->tx_states(ids)) {
            if (state != P2pNode::TxStatusInfo::State::confirmed) return false;
          }
        }
        return true;
      },
      240s))
      << "every transfer must confirm on every node";
  nodes_[0]->set_mining(false);
  ASSERT_TRUE(wait_until([&] { return heads_equal(live_nodes()); }, 60s));

  // The last block announcements may still be answered; nothing else may
  // be outstanding.
  wait_until(
      [&] {
        for (P2pNode* node : live_nodes()) {
          if (node->chain_stats().requests_in_flight != 0) return false;
        }
        return true;
      },
      10s);
  for (P2pNode* node : live_nodes()) {
    const auto stats = node->chain_stats();
    EXPECT_EQ(stats.requests_in_flight, 0u) << "node " << node->config().id;
    EXPECT_GE(stats.txs_confirmed, ids.size()) << "node " << node->config().id;
  }
}

// The miner re-takes its template when the pool grows mid-grind, so a
// transfer pooled while block h+1 is being ground lands in h+1, not h+2.  A
// block takes about 120 chunks of 2,048 nonces at this difficulty; a transfer
// misses only when the block is solved in the chunk running when it was
// pooled (about 1 in 120).  Each sample waits for a fresh head and then long
// enough for the miner to have taken its template on it, so a miner that
// picks transactions only on head changes lands nearly every sample in h+2.
TEST_F(P2pIntegrationTest, TransfersPooledMidGrindJoinTheBlockBeingMined) {
  P2pNodeConfig config = base_config(0, 2);
  config.difficulty = 250'000.0;
  config.checkpoint_interval = 0;
  P2pNode node(std::move(config));
  ASSERT_TRUE(node.start());

  constexpr std::size_t kSamples = 20;
  struct Sample {
    ledger::TxId id;
    std::uint64_t ground;  ///< height of the block being mined when pooled
  };
  std::vector<Sample> samples;
  std::uint64_t nonce = 1;
  std::uint64_t seen = node.head_height();
  const auto deadline = std::chrono::steady_clock::now() + 600s;
  while (samples.size() < kSamples &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(wait_until([&] { return node.head_height() > seen; }, 120s));
    std::this_thread::sleep_for(30ms);  // the miner re-takes its template
    const std::uint64_t before = node.head_height();
    const auto stx = ledger::sign_transaction(state::make_transfer_tx(
        0, nonce, static_cast<std::int64_t>(nonce),
        state::Transfer{1, 1, {}}));
    ASSERT_EQ(node.submit_transaction(stx), TxAdmit::accepted);
    ++nonce;
    seen = node.head_height();
    // A head change around the submit leaves the ground block ambiguous.
    if (seen == before) samples.push_back({stx.tx.id(), before + 1});
  }
  ASSERT_EQ(samples.size(), kSamples);
  ASSERT_TRUE(wait_until(
      [&] {
        for (const Sample& s : samples) {
          if (node.tx_status(s.id).state !=
              P2pNode::TxStatusInfo::State::confirmed) {
            return false;
          }
        }
        return true;
      },
      120s));
  node.stop();

  std::size_t joined = 0;
  for (const Sample& s : samples) {
    const auto status = node.tx_status(s.id);
    EXPECT_GE(status.block_height, s.ground);
    if (status.block_height == s.ground) ++joined;
  }
  EXPECT_GE(joined, kSamples - 3) << joined << " of " << kSamples
                                  << " joined the block being mined";
  EXPECT_GT(node.chain_stats().template_refreshes, 0u);
}

// Pool growth re-takes the template only while it has room.  At a difficulty
// no block reaches, the template changes only by refresh: the first transfer
// fills a one-transaction template (one refresh), and a second transfer finds
// it full (none).
TEST_F(P2pIntegrationTest, PoolGrowthRefreshesOnlyATemplateWithRoom) {
  P2pNodeConfig config = base_config(0, 2);
  config.difficulty = 1e30;
  config.max_block_txs = 1;
  config.checkpoint_interval = 0;
  P2pNode node(std::move(config));
  ASSERT_TRUE(node.start());
  // Let the miner take its empty template before the first transfer.
  std::this_thread::sleep_for(300ms);
  ASSERT_EQ(node.chain_stats().template_refreshes, 0u);

  const auto transfer = [](std::uint64_t nonce) {
    return ledger::sign_transaction(state::make_transfer_tx(
        0, nonce, static_cast<std::int64_t>(nonce),
        state::Transfer{1, 1, {}}));
  };
  ASSERT_EQ(node.submit_transaction(transfer(1)), TxAdmit::accepted);
  ASSERT_TRUE(wait_until(
      [&] { return node.chain_stats().template_refreshes >= 1; }, 60s));
  ASSERT_EQ(node.submit_transaction(transfer(2)), TxAdmit::accepted);
  // Hundreds of chunk boundaries natively, dozens under TSan.
  std::this_thread::sleep_for(500ms);
  const auto stats = node.chain_stats();
  EXPECT_EQ(stats.template_refreshes, 1u);
  EXPECT_EQ(stats.blocks_produced, 0u);
  EXPECT_EQ(node.pool_depth(), 2u);
  node.stop();
}

// themis-noded --report prints Gateway::metrics(), the GET /metrics document.
TEST_F(P2pIntegrationTest, ObservabilityCountersAreFilled) {
  P2pNodeConfig config = base_config(0, 1);
  config.mine = true;
  P2pNode node(std::move(config));
  rpc::Gateway gateway(node);
  ASSERT_TRUE(node.start());
  ASSERT_TRUE(wait_until([&] { return node.head_height() >= 2; }, 120s));
  node.stop();

  const Json report = Json::parse(gateway.metrics().dump());
  const Json& chain = report["chain"];
  EXPECT_GE(chain["height"].as_u64(), 2u);
  EXPECT_GE(chain["blocks_produced"].as_u64(), 2u);
  EXPECT_GE(chain["store_blocks"].as_u64(), 2u);
  EXPECT_EQ(chain["blocks_produced"].as_u64(),
            node.chain_stats().blocks_produced);
  for (const char* section : {"tx", "p2p", "finality", "rpc", "health"}) {
    EXPECT_TRUE(report[section].is_object()) << section;
  }
  EXPECT_TRUE(report["p2p"].has("dials_attempted"));
  EXPECT_TRUE(report["tx"].has("invs_received"));
  EXPECT_TRUE(chain.has("bodies_resident"));
  EXPECT_TRUE(report["tx"].has("indexed"));
  EXPECT_EQ(chain["template_refreshes"].as_u64(),
            node.chain_stats().template_refreshes);
}

}  // namespace
}  // namespace themis::p2p
