#include "replay.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/bytes.h"
#include "consensus/head_tracker.h"
#include "consensus/node.h"
#include "consensus/wire.h"
#include "consensus/miner.h"
#include "core/geost.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "finality/aggregation.h"
#include "finality/tracker.h"
#include "ledger/block_store.h"
#include "ledger/blocktree.h"
#include "ledger/txpool.h"
#include "ledger/validation.h"
#include "p2p/frame.h"
#include "p2p/messages.h"
#include "rpc/json.h"
#include "state/authstate/merkle_state.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace ledger = themis::ledger;
namespace state = themis::state;

/// Times `fn` as one replay span named `name`; returns elapsed µs.
template <typename Fn>
double timed_us(Tracer& tracer, const std::string& name, Fn&& fn) {
  const std::int64_t start = Tracer::now_ns();
  fn();
  const std::int64_t end = Tracer::now_ns();
  if (tracer.enabled()) tracer.record({tracer.next_id(), 0, name, start, end});
  return static_cast<double>(end - start) / 1e3;
}

double per(double total, std::size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

// Bounds that keep the replay to a few seconds whatever the run size.
constexpr std::size_t kMaxReplayTxs = 1024;
constexpr std::size_t kMaxReplayBlocks = 48;
constexpr std::size_t kMaxMaterializeBlocks = 12;
constexpr std::uint64_t kHashAttempts = 40'000;

}  // namespace

ReplayResult replay_layers(const ReplayInput& in, Tracer& tracer) {
  ReplayResult out;
  const std::size_t n_txs = std::min(in.txs.size(), kMaxReplayTxs);
  const std::vector<ledger::SignedTransaction> txs(in.txs.begin(),
                                                   in.txs.begin() + n_txs);
  // The timed blocks start at the first one carrying transactions (blocks
  // mined before the load began are empty); the empty prefix is replayed
  // untimed wherever a layer needs the parent chain.
  std::size_t first = 0;
  while (first < in.blocks.size() && in.blocks[first]->transactions().empty()) {
    ++first;
  }
  const std::vector<ledger::BlockPtr> prefix(in.blocks.begin(),
                                             in.blocks.begin() + first);
  const std::vector<ledger::BlockPtr> blocks(
      in.blocks.begin() + first,
      in.blocks.begin() + std::min(in.blocks.size(), first + kMaxReplayBlocks));

  // crypto: batch Schnorr verification, 64 signatures per batch.
  {
    std::vector<themis::crypto::PublicKey> keys;
    for (std::size_t i = 0; i < in.n_nodes; ++i) {
      keys.push_back(themis::crypto::Keypair::from_node_id(i).public_key());
    }
    std::vector<std::vector<themis::crypto::BatchVerifyItem>> batches;
    for (std::size_t i = 0; i < txs.size(); i += 64) {
      std::vector<themis::crypto::BatchVerifyItem> batch;
      for (std::size_t j = i; j < std::min(txs.size(), i + 64); ++j) {
        batch.push_back(
            {keys.at(txs[j].tx.sender()), txs[j].tx.id(), txs[j].signature});
      }
      batches.push_back(std::move(batch));
    }
    bool ok = true;
    const double us = timed_us(tracer, "replay.crypto.verify_batch", [&] {
      for (const auto& batch : batches) ok = themis::crypto::verify_batch(batch) && ok;
    });
    if (!ok) out.violations.push_back("a submitted signature fails batch verify");
    out.verify_us_per_sig = per(us, txs.size());
  }

  // crypto: one RealMiner chunk against an unreachable target.
  {
    ledger::BlockHeader header;
    header.difficulty = 1e30;
    header.height = 1;
    const double us = timed_us(tracer, "replay.crypto.mine_chunk", [&] {
      (void)themis::consensus::RealMiner::mine(header, 0, kHashAttempts);
    });
    out.hash_ns = us * 1e3 / static_cast<double>(kHashAttempts);
  }

  // rpc: the server's parse of a submit_txs body and dump of its reply.
  if (in.submit_txs > 0) {
    const themis::rpc::Json reply = themis::rpc::Json::parse(in.submit_reply);
    constexpr int kRounds = 8;
    const double us = timed_us(tracer, "replay.rpc.json", [&] {
      for (int i = 0; i < kRounds; ++i) {
        const auto body = themis::rpc::Json::parse(in.submit_body);
        const std::string dumped = reply.dump();
        if (body.is_null() || dumped.empty()) out.violations.push_back("json");
      }
    });
    out.json_us_per_tx = per(us, in.submit_txs * kRounds);
  }

  // p2p: a relayed kP2pTxBatch frame, encoded and decoded end to end.
  if (!txs.empty()) {
    themis::p2p::TxBatchMsg msg;
    for (const auto& stx : txs) msg.txs.push_back(stx.encode());
    std::size_t decoded = 0;
    const double us = timed_us(tracer, "replay.p2p.codec", [&] {
      const themis::Bytes frame =
          themis::p2p::encode_frame(themis::consensus::kP2pTxBatch, msg.encode());
      themis::p2p::FrameDecoder decoder;
      decoder.feed(frame);
      while (auto f = decoder.poll()) {
        for (const auto& raw : themis::p2p::TxBatchMsg::decode(f->payload).txs) {
          decoded += ledger::SignedTransaction::decode(raw).tx.nonce() > 0;
        }
      }
    });
    if (decoded != txs.size()) out.violations.push_back("tx batch codec lost txs");
    out.codec_us_per_tx = per(us, txs.size());
  }

  // ledger: pool insert and candidate selection against the root state.
  if (!txs.empty() && in.root_state != nullptr) {
    ledger::TxPool pool;
    const double add_us = timed_us(tracer, "replay.ledger.pool_add", [&] {
      for (const auto& stx : txs) pool.add(stx);
    });
    out.pool_add_us = per(add_us, txs.size());
    constexpr int kSelects = 8;
    const double select_us = timed_us(tracer, "replay.ledger.pool_select", [&] {
      for (int i = 0; i < kSelects; ++i) {
        state::ScratchState scratch(*in.root_state);
        (void)pool.select(in.max_block_txs, [&scratch](const ledger::Transaction& tx) {
          return scratch.apply(tx) == state::TxOutcome::applied;
        });
      }
    });
    out.pool_select_us_per_block = per(select_us, kSelects);
  }

  if (blocks.empty() || in.root == nullptr || in.root_state == nullptr) {
    return out;
  }

  // ledger: full §III validation of each recorded main-chain block.
  {
    std::unordered_map<ledger::BlockHash, std::uint64_t, themis::Hash32Hasher>
        heights{{in.root->id(), in.root->header().height}};
    for (const auto& b : prefix) heights[b->id()] = b->header().height;
    for (const auto& b : blocks) heights[b->id()] = b->header().height;
    themis::consensus::KeyRegistry registry;
    for (std::size_t i = 0; i < in.n_nodes; ++i) {
      registry.add(i, themis::crypto::Keypair::from_node_id(i).public_key());
    }
    double difficulty = 0;
    ledger::ValidationContext ctx;
    ctx.public_key = [&registry](ledger::NodeId id) { return registry.lookup(id); };
    ctx.expected_difficulty = [&difficulty](ledger::NodeId, const ledger::BlockHash&)
        -> std::optional<double> { return difficulty; };
    ctx.parent_height = [&heights](const ledger::BlockHash& parent)
        -> std::optional<std::uint64_t> {
      const auto it = heights.find(parent);
      if (it == heights.end()) return std::nullopt;
      return it->second;
    };
    double us = 0;
    for (const auto& b : blocks) {
      difficulty = b->header().difficulty;
      ledger::BlockCheck check = ledger::BlockCheck::ok;
      us += timed_us(tracer, "replay.ledger.validate",
                     [&] { check = ledger::validate_block(*b, ctx); });
      if (check != ledger::BlockCheck::ok) {
        out.violations.push_back("main-chain block at height " +
                                 std::to_string(b->header().height) +
                                 " fails validation: " +
                                 std::string(ledger::to_string(check)));
      }
    }
    out.validate_us_per_block = per(us, blocks.size());
  }

  // ledger: durable store append.
  {
    const auto dir = in.workdir / "replay-store";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::size_t tx_count = 0;
    double us = 0;
    std::uint64_t bytes = 0;
    {
      ledger::BlockStore store(dir / "blocks.dat");
      for (const auto& b : blocks) {
        tx_count += b->transactions().size();
        us += timed_us(tracer, "replay.ledger.store_append", [&] { store.append(*b); });
      }
      bytes = store.valid_bytes();
    }
    std::filesystem::remove_all(dir);
    out.store_append_us_per_block = per(us, blocks.size());
    out.store_bytes_per_tx = per(static_cast<double>(bytes), tx_count);
  }

  // consensus: fork-choice insert (BlockTree::insert + HeadTracker::on_insert
  // under GEOST, the daemon's rule).
  {
    const themis::core::GeostRule rule(in.n_nodes);
    ledger::BlockTree tree(in.root);
    themis::consensus::HeadTracker tracker;
    tracker.reset(tree, rule, tree.genesis_hash(), 16);
    for (const auto& b : prefix) {
      tree.insert(b);
      tracker.on_insert(tree, rule, b->id());
    }
    const double us = timed_us(tracer, "replay.consensus.forkchoice_insert", [&] {
      for (const auto& b : blocks) {
        tree.insert(b);
        tracker.on_insert(tree, rule, b->id());
      }
    });
    if (tracker.head() != blocks.back()->id()) {
      out.violations.push_back("fork-choice replay ends off the recorded head");
    }
    out.forkchoice_insert_us = per(us, blocks.size());
  }

  // state: execution, per-head materialization, dirty-page root update and
  // proof generation, in the order a node runs them for each new head.
  {
    state::StateManager mgr({});
    mgr.reset_base(*in.root_state);
    ledger::BlockTree tree(in.root);
    themis::state::authstate::RootCache roots;
    roots.rebuild(*in.root_state);
    for (const auto& b : prefix) tree.insert(b);
    if (!prefix.empty()) roots.rebuild(mgr.state_at(tree, prefix.back()->id()));
    double exec_us = 0, materialize_us = 0, root_us = 0;
    std::size_t exec_txs = 0, materialized = 0, dirty_pages = 0;
    for (const auto& b : blocks) {
      if (materialized >= kMaxMaterializeBlocks) break;
      tree.insert(b);
      state::ScratchState scratch(mgr.state_at(tree, b->header().prev));
      exec_us += timed_us(tracer, "replay.state.exec", [&] {
        for (const auto& tx : b->transactions()) (void)scratch.apply(tx);
      });
      exec_txs += b->transactions().size();
      state::StateDelta delta = scratch.take_delta();
      std::vector<ledger::NodeId> touched;
      std::set<std::uint32_t> pages;
      for (const auto& [id, account] : delta.accounts) {
        touched.push_back(id);
        pages.insert(themis::state::authstate::page_of(id));
      }
      dirty_pages += pages.size();
      mgr.record_delta(b->id(), std::move(delta));
      const state::LedgerState* post = nullptr;
      materialize_us += timed_us(tracer, "replay.state.materialize",
                                 [&] { post = &mgr.state_at(tree, b->id()); });
      root_us += timed_us(tracer, "replay.state.root_update",
                          [&] { roots.update(*post, touched); });
      ++materialized;
    }
    out.exec_us_per_tx = per(exec_us, exec_txs);
    out.materialize_ms_per_block = per(materialize_us / 1e3, materialized);
    out.root_update_ms_per_block = per(root_us / 1e3, materialized);
    out.dirty_pages_per_block =
        per(static_cast<double>(dirty_pages), materialized);

    // Proofs as the node builds them: the target page encoded, the Merkle
    // path taken over the root cache's page hashes.
    const state::LedgerState& head_state = mgr.state_at(tree, tree.tips().front());
    std::size_t proofs = 0;
    const double prove_us = timed_us(tracer, "replay.state.prove", [&] {
      for (const std::uint32_t id : in.proof_accounts) {
        if (proofs == 32) break;
        const std::uint32_t page = themis::state::authstate::page_of(id);
        if (page >= roots.page_count()) continue;
        (void)themis::state::authstate::encode_page(head_state, page);
        (void)themis::crypto::merkle_prove(roots.page_hashes(), page);
        ++proofs;
      }
    });
    out.prove_ms = per(prove_us / 1e3, proofs);
  }

  // finality: vote accumulation (signature check + tally) per vote.
  {
    themis::finality::TrackerConfig config;
    config.interval = in.checkpoint_interval;
    themis::finality::CheckpointTracker tracker(
        config, themis::finality::ValidatorSet::deterministic(in.n_nodes),
        themis::finality::make_backend("concat"));
    std::vector<themis::finality::CheckpointVote> votes;
    std::uint64_t k = 1;
    for (const auto& b : blocks) {
      if (votes.size() >= 64) break;
      for (std::size_t v = 0; v < in.n_nodes; ++v) {
        votes.push_back(tracker.make_vote(
            k * in.checkpoint_interval, b->id(),
            themis::crypto::Keypair::from_node_id(v), static_cast<ledger::NodeId>(v)));
      }
      ++k;
    }
    std::size_t rejected = 0;
    const double us = timed_us(tracer, "replay.finality.add_vote", [&] {
      for (const auto& vote : votes) {
        const auto outcome = tracker.add_vote(vote);
        rejected += outcome != themis::finality::VoteOutcome::accepted &&
                    outcome != themis::finality::VoteOutcome::quorum;
      }
    });
    if (rejected != 0) out.violations.push_back("replayed checkpoint votes rejected");
    out.vote_add_us = per(us, votes.size());
  }
  return out;
}

}  // namespace perfbench
