#include "p2p/node.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "consensus/miner.h"
#include "consensus/wire.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "obs/live/log.h"
#include "p2p/sync.h"
#include "state/authstate/snapshot.h"

namespace themis::p2p {

using consensus::RealMiner;
using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;
using obs::live::TxStage;

namespace {

/// Byte budget for one kP2pBlocks batch: half the frame ceiling, so the
/// one-block overshoot serve_range allows can never breach kMaxFramePayload.
constexpr std::size_t kSyncBatchBytes = kMaxFramePayload / 2;

/// In-flight getdata entries tolerated before handle_inv drops the ones past
/// kRequestRetryMs — ids a peer announced but never serves (bogus, or
/// confirmed before the getdata landed) would otherwise stay forever.
constexpr std::size_t kMaxRequestsInFlight = 4 * kMaxInvHashes;

static_assert(consensus::ChainCore::kMaxOrphans >= 2 * kMaxSyncBlocks,
              "one orphaned sync batch must fit the orphan buffer");

/// Consecutive fully-duplicate sync batches tolerated per peer before we stop
/// re-requesting (Peer::sync_stalls).
constexpr std::uint32_t kMaxSyncStalls = 3;

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Send the votes `peer` is not known to have (per-peer known-inventory set
/// keyed on vote_id(), like block and tx ids).
void send_votes(Peer& peer,
                const std::vector<finality::CheckpointVote>& votes) {
  for (const finality::CheckpointVote& vote : votes) {
    if (!peer.mark_known(vote.vote_id())) continue;
    if (!peer.send_frame(consensus::kP2pCkptVote, CkptVoteMsg{vote}.encode())) {
      return;
    }
  }
}

/// Genesis funding: every consortium account starts with the same balance.
std::map<ledger::NodeId, UInt128> genesis_allocation(
    const P2pNodeConfig& config) {
  std::map<ledger::NodeId, UInt128> alloc;
  if (config.genesis_fund > 0) {
    for (std::size_t i = 0; i < config.n_nodes; ++i) {
      alloc[static_cast<ledger::NodeId>(i)] = config.genesis_fund;
    }
  }
  return alloc;
}

/// The consortium keys: member i signs with Keypair::from_node_id(i).
std::shared_ptr<const consensus::KeyRegistry> consortium_keys(
    std::size_t n_nodes) {
  auto registry = std::make_shared<consensus::KeyRegistry>();
  for (std::size_t i = 0; i < n_nodes; ++i) {
    registry->add(static_cast<ledger::NodeId>(i),
                  crypto::Keypair::from_node_id(i).public_key());
  }
  return registry;
}

consensus::ChainCoreConfig core_config(const P2pNodeConfig& config) {
  consensus::ChainCoreConfig core;
  core.id = config.id;
  core.n_nodes = config.n_nodes;
  core.finality_depth = config.finality_depth;
  core.use_signatures = true;
  core.check_work = true;
  core.checkpoint_interval = config.checkpoint_interval;
  core.finality_backend = config.finality_backend;
  return core;
}

/// Admission replay filter: a transaction belongs in a candidate block only
/// if it applies cleanly on top of everything selected before it.
bool applies_cleanly(state::ScratchState& scratch,
                     const ledger::Transaction& tx) {
  const state::TxOutcome outcome = scratch.apply(tx);
  return outcome == state::TxOutcome::applied ||
         outcome == state::TxOutcome::data_only;
}

}  // namespace

std::string_view to_string(TxAdmit admit) {
  switch (admit) {
    case TxAdmit::accepted: return "accepted";
    case TxAdmit::duplicate: return "duplicate";
    case TxAdmit::known_confirmed: return "known_confirmed";
    case TxAdmit::invalid: return "invalid";
    case TxAdmit::bad_signature: return "bad_signature";
    case TxAdmit::unknown_sender: return "unknown_sender";
    case TxAdmit::stale_nonce: return "stale_nonce";
    case TxAdmit::nonce_gap: return "nonce_gap";
  }
  return "unknown";
}

P2pNode::P2pNode(P2pNodeConfig config,
                 std::shared_ptr<consensus::ForkChoiceRule> rule,
                 std::shared_ptr<consensus::DifficultyPolicy> policy)
    : config_(std::move(config)),
      registry_(consortium_keys(config_.n_nodes)),
      core_(core_config(config_),
            rule != nullptr ? std::move(rule)
                            : std::make_shared<consensus::GhostRule>(),
            policy != nullptr ? std::move(policy)
                              : std::make_shared<consensus::FixedDifficulty>(
                                    config_.difficulty),
            registry_),
      keypair_(*core_.keypair()),
      state_(genesis_allocation(config_)),
      pool_(config_.pool_capacity) {
  expects(config_.n_nodes >= 1, "p2p node set must be non-empty");
  expects(config_.id < config_.n_nodes, "node id out of range");
  core_.set_body_check(
      [this](const Block& block) { return replay_body_locked(block); });

  PeerManagerConfig pm;
  pm.listen_port = config_.listen_port;
  pm.listen = config_.listen;
  pm.dial = config_.peers;
  pm.handshake.genesis = core_.tree().genesis_hash();
  pm.handshake.node_id = config_.id;
  pm.handshake.agent = config_.agent;
  pm.dial_timeout_ms = config_.dial_timeout_ms;
  pm.ping_interval_ms = config_.ping_interval_ms;
  pm.pong_timeout_ms = config_.pong_timeout_ms;
  pm.backoff_initial_ms = config_.backoff_initial_ms;
  pm.backoff_max_ms = config_.backoff_max_ms;
  pm.jitter_seed = config_.rng_seed ^ (0x9e3779b97f4a7c15ULL + config_.id);
  peers_ = std::make_unique<PeerManager>(std::move(pm));
  peers_->set_height_provider([this] { return head_height(); });
  peers_->set_ready_handler([this](Peer& peer) { on_peer_ready(peer); });
  peers_->set_frame_handler(
      [this](Peer& peer, std::uint32_t type, ByteSpan payload) {
        on_peer_frame(peer, type, payload);
      });

  register_live_metrics();
  // Confirmation stamps ride the reconciler: it fires per newly-confirmed tx
  // under mu_, after the inclusion stamps of the same head change.
  reconciler_.set_confirm_hook([this](const ledger::TxId& id) {
    stage_tracker_.stamp(id, TxStage::confirmed);
  });
}

void P2pNode::register_live_metrics() {
  obs::live::Registry& r = live_registry_;
  live_.txs_submitted = &r.counter(
      "themis_tx_submitted_total", "Transaction admission attempts (RPC + wire relay).");
  live_.txs_accepted = &r.counter(
      "themis_tx_accepted_total", "Transactions admitted into the pool.");
  live_.txs_rejected = &r.counter(
      "themis_tx_rejected_total", "Transactions that failed an admission check.");
  live_.txs_duplicate = &r.counter(
      "themis_tx_duplicate_total", "Transactions already pending or confirmed.");
  live_.blocks_mined = &r.counter(
      "themis_blocks_mined_total", "Blocks mined by this node.");
  live_.blocks_received = &r.counter(
      "themis_blocks_received_total", "Full blocks received over the wire.");
  live_.blocks_rejected = &r.counter(
      "themis_blocks_rejected_total", "Blocks that failed validation.");
  live_.head_changes = &r.counter(
      "themis_head_changes_total", "Fork-choice head moves.");
  live_.reorgs = &r.counter(
      "themis_reorgs_total", "Head moves that abandoned a previous branch.");
  live_.ckpt_votes_sent = &r.counter(
      "themis_finality_votes_sent_total",
      "Checkpoint votes signed and broadcast by this node.");
  live_.ckpt_votes_received = &r.counter(
      "themis_finality_votes_received_total",
      "Checkpoint vote frames received from peers.");
  live_.ckpt_votes_accepted = &r.counter(
      "themis_finality_votes_accepted_total",
      "Checkpoint votes counted toward a checkpoint quorum.");
  live_.ckpt_votes_rejected = &r.counter(
      "themis_finality_votes_rejected_total",
      "Checkpoint votes rejected (equivocation, unknown voter, bad signature).");
  live_.ckpt_certs = &r.counter(
      "themis_finality_certificates_total",
      "Checkpoint quorums completed locally (certificates formed).");
  live_.admit_batch = &r.histogram(
      "themis_admit_batch_seconds",
      "Latency of one combining-leader admission batch (all four stages).");
  live_.block_submit = &r.histogram(
      "themis_block_submit_seconds",
      "Latency of block validate + insert + head update + pool reconcile.");
  pool_.set_live_counters(
      &r.counter("themis_pool_added_total", "TxPool inserts (all shards)."),
      &r.counter("themis_pool_evicted_total",
                 "TxPool capacity evictions (oldest first)."));
  // Instantaneous values the components already maintain atomically are read
  // at scrape time instead of being mirrored on the hot path.
  r.gauge_fn("themis_pool_depth", "Pending transactions in the TxPool.",
             [this] { return static_cast<double>(pool_.size()); });
  r.gauge_fn("themis_ready_peers", "Handshake-complete peer connections.",
             [this] { return static_cast<double>(peers_->ready_peer_count()); });
  r.gauge_fn("themis_head_height", "Height of the fork-choice head.",
             [this] { return static_cast<double>(head_height()); });
  r.gauge_fn("themis_uptime_seconds", "Seconds since the node started.",
             [this] { return uptime_seconds(); });
  r.gauge_fn("themis_finality_height",
             "Highest hard-finalized checkpoint height.", [this] {
               std::lock_guard<std::mutex> lock(mu_);
               return static_cast<double>(core_.finalized_height());
             });
  r.gauge_fn("themis_finality_lag_blocks",
             "Blocks between the fork-choice head and the finalized height.",
             [this] {
               // HeadTracker keeps the head at or above the finalized height.
               std::lock_guard<std::mutex> lock(mu_);
               return static_cast<double>(core_.head_height() -
                                          core_.finalized_height());
             });
  r.gauge_fn("themis_finality_cert_votes",
             "Voters on the latest formed checkpoint certificate.", [this] {
               std::lock_guard<std::mutex> lock(mu_);
               const finality::CheckpointTracker* ckpt = core_.checkpoints();
               if (ckpt == nullptr) return 0.0;
               const finality::CheckpointCertificate* cert =
                   ckpt->latest_certificate();
               return cert == nullptr
                          ? 0.0
                          : static_cast<double>(cert->voters.size());
             });
  r.gauge_fn("themis_p2p_bytes_in", "Transport bytes received.",
             [this] { return static_cast<double>(peers_->stats().bytes_in); });
  r.gauge_fn("themis_p2p_bytes_out", "Transport bytes sent.",
             [this] { return static_cast<double>(peers_->stats().bytes_out); });
}

P2pNode::~P2pNode() { stop(); }

bool P2pNode::start() {
  expects(!started_, "p2p node already started");
  start_time_ = std::chrono::steady_clock::now();

  if (!config_.datadir.empty()) {
    std::filesystem::create_directories(config_.datadir);
    std::lock_guard<std::mutex> lock(mu_);
    // Restart in O(snapshot + suffix), not O(history): when a verified state
    // snapshot exists and its block is in the store, re-root the tree at the
    // snapshot block, seed the StateManager base with the restored state,
    // and replay only the records above the snapshot height.  Any snapshot
    // defect (checksum, version, root mismatch, missing block) falls back to
    // the full replay path.
    const auto snap =
        state::authstate::read_snapshot(config_.datadir / "state.snap");
    store_ =
        std::make_unique<ledger::BlockStore>(config_.datadir / "blocks.dat");
    ledger::BlockTree tree;
    std::uint64_t replay_from = 0;
    if (snap.has_value()) {
      if (auto root_block = store_->read_by_id(snap->block);
          root_block.has_value()) {
        tree = ledger::BlockTree(
            std::make_shared<const Block>(*std::move(root_block)));
        state_.reset_base(snap->state);
        last_snapshot_height_ = snap->height;
        stats_.snapshot_height = snap->height;
        stats_.restored_from_snapshot = true;
        replay_from = snap->height + 1;
      } else {
        obs::live::log_warn("chain",
                            "snapshot block missing from store; full replay",
                            {{"height", snap->height}});
      }
    }
    stats_.store_replayed = store_->replay_into(tree, replay_from);
    if (stats_.restored_from_snapshot) {
      obs::live::log_info(
          "chain", "restored from snapshot",
          {{"height", snap->height},
           {"accounts",
            static_cast<std::uint64_t>(snap->state.accounts().size())},
           {"replayed", stats_.store_replayed}});
    }
    core_.reset(std::move(tree));
    // The confirmed-tx index covers the replayed main chain, so tx_status
    // and duplicate suppression survive a restart.
    reconciler_.rebuild(core_.tree(), core_.head());
  }
  trace("node_start", {obs::Field::u64("node", config_.id),
                       obs::Field::u64("replayed", stats_.store_replayed),
                       obs::Field::u64("height", core_.head_height())});

  if (!peers_->start()) {
    obs::live::log_error("node", "listen failed",
                         {{"port", static_cast<std::uint64_t>(config_.listen_port)}});
    return false;
  }
  started_ = true;
  obs::live::log_info(
      "node", "started",
      {{"id", static_cast<std::uint64_t>(config_.id)},
       {"port", static_cast<std::uint64_t>(peers_->listen_port())},
       {"height", head_height()},
       {"replayed", chain_stats().store_replayed},
       {"mining", config_.mine}});

  mining_enabled_.store(config_.mine);
  miner_thread_ = std::thread([this] { mine_loop(); });
  return true;
}

void P2pNode::stop() {
  if (!started_) return;
  stopping_.store(true);
  miner_cv_.notify_all();
  if (miner_thread_.joinable()) miner_thread_.join();
  peers_->stop();
  started_ = false;
  obs::live::log_info("node", "stopped",
                      {{"id", static_cast<std::uint64_t>(config_.id)},
                       {"height", head_height()}});
}

void P2pNode::set_mining(bool enabled) {
  mining_enabled_.store(enabled);
  miner_cv_.notify_all();
}

std::int64_t P2pNode::wall_nanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void P2pNode::trace(std::string_view event,
                    std::initializer_list<obs::Field> fields) {
  if (obs_ == nullptr || !obs_->tracer.enabled()) return;
  std::lock_guard<std::mutex> lock(trace_mu_);
  obs_->tracer.emit(SimTime(wall_nanos()), event, fields);
}

// ---------------------------------------------------------------------------
// Transport callbacks
// ---------------------------------------------------------------------------

void P2pNode::on_peer_ready(Peer& peer) {
  trace("peer_ready", {obs::Field::u64("node", config_.id),
                       obs::Field::u64("remote", peer.remote().node_id),
                       obs::Field::boolean("outbound", peer.outbound())});
  obs::live::log_info(
      "p2p", "peer ready",
      {{"remote", static_cast<std::uint64_t>(peer.remote().node_id)},
       {"outbound", peer.outbound()},
       {"peers", static_cast<std::uint64_t>(peers_->ready_peer_count())}});
  // Always probe for a better chain: the response is empty if we are caught
  // up, and the locator round also covers a remote that lied about height.
  request_sync(peer);

  // Offer our pending transactions (bounded to one inv frame); the peer
  // fetches whatever it lacks, so a fresh node inherits the mempool the same
  // way it inherits the chain.
  InvMsg pool_inv;
  for (const ledger::TxId& id : pool_.ids(kMaxInvHashes)) {
    if (peer.mark_known(id)) pool_inv.hashes.push_back(id);
  }
  if (!pool_inv.hashes.empty()) {
    peer.send_frame(consensus::kP2pTxInv, pool_inv.encode());
  }

  // Offer our retained checkpoint votes the same way: a freshly connected
  // (or partition-healed) peer can be brought to quorum — and force-switched
  // onto the certified chain — from the retained window alone.
  std::vector<finality::CheckpointVote> retained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* ckpt = core_.checkpoints()) {
      retained = ckpt->retained_votes();
    }
  }
  send_votes(peer, retained);
}

void P2pNode::request_sync(Peer& peer) {
  GetBlocksMsg request;
  {
    std::lock_guard<std::mutex> lock(mu_);
    request.locator = build_locator(core_.tree(), core_.head());
    ++stats_.sync_rounds;
  }
  request.max_blocks = static_cast<std::uint32_t>(kMaxSyncBlocks);
  peer.send_frame(consensus::kP2pGetBlocks, request.encode());
}

void P2pNode::on_peer_frame(Peer& peer, std::uint32_t type, ByteSpan payload) {
  switch (type) {
    case consensus::kP2pInv:
      handle_inv(peer, payload, /*txs=*/false);
      return;
    case consensus::kP2pGetData:
      handle_getdata(peer, payload);
      return;
    case consensus::kP2pBlock:
      handle_block(peer, payload);
      return;
    case consensus::kP2pGetBlocks:
      handle_getblocks(peer, payload);
      return;
    case consensus::kP2pBlocks:
      handle_blocks(peer, payload);
      return;
    case consensus::kP2pTxInv:
      handle_inv(peer, payload, /*txs=*/true);
      return;
    case consensus::kP2pGetTxData:
      handle_get_txdata(peer, payload);
      return;
    case consensus::kP2pTx:
      handle_tx(peer, payload);
      return;
    case consensus::kP2pTxBatch:
      handle_tx_batch(peer, payload);
      return;
    case consensus::kP2pCkptVote:
      handle_ckpt_vote(peer, payload);
      return;
    default:
      // Unknown post-handshake frame: tolerated (forward compatibility), the
      // frame layer already verified its integrity.
      return;
  }
}

void P2pNode::handle_inv(Peer& peer, ByteSpan payload, bool txs) {
  const InvMsg inv = InvMsg::decode(payload);  // tx ids are Hash32 like blocks
  InvMsg want;
  const std::int64_t now = steady_ms();
  {
    std::lock_guard<std::mutex> lock(mu_);
    (txs ? stats_.tx_invs_received : stats_.invs_received) += inv.hashes.size();
    // Sweep at most once per retry window, so a table of live entries is not
    // rescanned on every announcement.
    if (requested_.size() > kMaxRequestsInFlight &&
        now - requested_swept_ms_ >= kRequestRetryMs) {
      std::erase_if(requested_, [now](const auto& entry) {
        return now - entry.second >= kRequestRetryMs;
      });
      requested_swept_ms_ = now;
    }
    for (const Hash32& h : inv.hashes) {
      const bool known = txs ? pool_.contains(h) ||
                                   reconciler_.block_of(h).has_value()
                             : core_.tree().contains(h);
      if (known) {
        ++(txs ? stats_.tx_invs_redundant : stats_.invs_redundant);
        continue;
      }
      const auto [it, fresh] = requested_.try_emplace(h, now);
      if (!fresh) {
        if (now - it->second < kRequestRetryMs) {
          continue;  // already being fetched from another announcer
        }
        it->second = now;
      }
      want.hashes.push_back(h);
    }
  }
  for (const Hash32& h : inv.hashes) peer.mark_known(h);
  if (!want.hashes.empty()) {
    peer.send_frame(txs ? consensus::kP2pGetTxData : consensus::kP2pGetData,
                    want.encode());
  }
}

void P2pNode::handle_getdata(Peer& peer, ByteSpan payload) {
  const InvMsg request = InvMsg::decode(payload);
  std::vector<std::pair<BlockHash, Bytes>> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const BlockHash& h : request.hashes) {
      if (!core_.tree().contains(h)) continue;  // pruned/unknown: skip
      found.emplace_back(h, core_.tree().block(h)->encode());
    }
  }
  for (const auto& [hash, encoding] : found) {
    peer.mark_known(hash);
    if (!peer.send_frame(consensus::kP2pBlock, encoding)) return;
  }
}

bool P2pNode::handle_block(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed block propagates to the reader loop, which
  // treats it as a protocol error and closes the connection.
  auto block = std::make_shared<const Block>(Block::decode(payload));
  peer.mark_known(block->id());
  return submit_block(std::move(block), peer.session_id());
}

void P2pNode::handle_getblocks(Peer& peer, ByteSpan payload) {
  const GetBlocksMsg request = GetBlocksMsg::decode(payload);
  BlocksMsg response;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t max_blocks =
        std::min<std::size_t>(request.max_blocks, kMaxSyncBlocks);
    const auto range = serve_range(core_.tree(), core_.head(), request.locator,
                                   max_blocks, kSyncBatchBytes);
    response.blocks.reserve(range.size());
    for (const BlockPtr& block : range) {
      response.blocks.push_back(block->encode());
    }
    ++stats_.sync_requests_served;
    stats_.sync_blocks_served += range.size();
  }
  trace("sync_served", {obs::Field::u64("node", config_.id),
                        obs::Field::u64("remote", peer.remote().node_id),
                        obs::Field::u64("blocks", response.blocks.size())});
  peer.send_frame(consensus::kP2pBlocks, response.encode());
}

void P2pNode::handle_blocks(Peer& peer, ByteSpan payload) {
  const BlocksMsg batch = BlocksMsg::decode(payload);
  if (batch.blocks.empty()) {
    peer.sync_stalls.store(0, std::memory_order_relaxed);
    return;  // caught up with this peer
  }
  bool grew = false;
  for (const Bytes& raw : batch.blocks) grew = handle_block(peer, raw) || grew;
  // A non-empty batch means the peer may hold more; page until drained.  A
  // fully-duplicate batch usually means our locator raced with blocks that
  // arrived from another peer mid-round, so retry with a fresh locator — but
  // only a bounded number of times, so a peer that keeps serving blocks we
  // already have cannot trap us in a request loop.
  if (grew) {
    peer.sync_stalls.store(0, std::memory_order_relaxed);
    request_sync(peer);
  } else if (peer.sync_stalls.fetch_add(1, std::memory_order_relaxed) <
             kMaxSyncStalls) {
    request_sync(peer);
  }
}

// ---------------------------------------------------------------------------
// Transaction relay
// ---------------------------------------------------------------------------

void P2pNode::handle_get_txdata(Peer& peer, ByteSpan payload) {
  const InvMsg request = InvMsg::decode(payload);
  // The whole requested set travels in one kP2pTxBatch frame (split only at
  // the frame ceiling), so the peer can admit it as a single batch with one
  // batched signature verification.
  TxBatchMsg batch;
  std::size_t batch_bytes = 0;
  constexpr std::size_t kBatchByteBudget = kMaxFramePayload / 2;
  std::uint64_t served = 0;
  const auto flush_batch = [&]() -> bool {
    if (batch.txs.empty()) return true;
    const bool sent = peer.send_frame(consensus::kP2pTxBatch, batch.encode());
    if (sent) served += batch.txs.size();
    batch.txs.clear();
    batch_bytes = 0;
    return sent;
  };
  for (const ledger::TxId& id : request.hashes) {
    const auto stx = pool_.get(id);
    if (!stx.has_value()) continue;  // confirmed or evicted: silently skip
    peer.mark_known(id);
    Bytes encoded = stx->encode();
    if (batch.txs.size() >= kMaxBatchTxs ||
        batch_bytes + encoded.size() > kBatchByteBudget) {
      if (!flush_batch()) break;
    }
    batch_bytes += encoded.size();
    batch.txs.push_back(std::move(encoded));
  }
  flush_batch();
  if (served > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.txs_relayed += served;
  }
}

void P2pNode::handle_tx(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed transaction propagates to the reader loop,
  // which treats it as a protocol error and closes the connection (same
  // discipline as malformed blocks).
  const auto stx = ledger::SignedTransaction::decode(payload);
  const ledger::TxId id = stx.tx.id();
  peer.mark_known(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.txs_received;
    requested_.erase(id);
  }
  accept_transaction(stx, peer.session_id());
}

void P2pNode::handle_tx_batch(Peer& peer, ByteSpan payload) {
  const TxBatchMsg batch = TxBatchMsg::decode(payload);
  if (batch.txs.empty()) return;
  std::vector<ledger::SignedTransaction> stxs;
  stxs.reserve(batch.txs.size());
  for (const Bytes& raw : batch.txs) {
    stxs.push_back(ledger::SignedTransaction::decode(raw));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.txs_received += stxs.size();
    for (const ledger::SignedTransaction& stx : stxs) {
      requested_.erase(stx.tx.id());
    }
  }
  std::vector<AdmitRequest> requests(stxs.size());
  std::vector<AdmitRequest*> pointers;
  pointers.reserve(stxs.size());
  for (std::size_t i = 0; i < stxs.size(); ++i) {
    peer.mark_known(stxs[i].tx.id());
    requests[i].stx = &stxs[i];
    requests[i].source_session = peer.session_id();
    pointers.push_back(&requests[i]);
  }
  enqueue_and_settle(pointers);
}

void P2pNode::handle_ckpt_vote(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed vote propagates to the reader loop, which
  // treats it as a protocol error and closes the connection (same discipline
  // as malformed blocks and transactions).
  const CkptVoteMsg msg = CkptVoteMsg::decode(payload);
  const finality::CheckpointVote& vote = msg.vote;
  peer.mark_known(vote.vote_id());

  consensus::ChainCore::Effects fx;
  std::uint64_t height = 0;
  bool relay = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (core_.checkpoints() == nullptr) return;  // finality off: tolerated
    ++stats_.ckpt_votes_received;
    live_.ckpt_votes_received->inc();
    fx = core_.add_vote(vote);
    relay = *fx.vote == finality::VoteOutcome::accepted ||
            *fx.vote == finality::VoteOutcome::quorum;
    if (relay) {
      ++stats_.ckpt_votes_accepted;
      live_.ckpt_votes_accepted->inc();
    } else if (*fx.vote != finality::VoteOutcome::duplicate &&
               *fx.vote != finality::VoteOutcome::stale) {
      // Duplicates and stale votes are benign gossip races; the rest are
      // protocol violations (equivocation, unknown voter, bad signature).
      ++stats_.ckpt_votes_rejected;
      live_.ckpt_votes_rejected->inc();
    }
    absorb_locked(fx);
    height = core_.head_height();
  }
  // Accepted votes flood onward (suppressed per peer by vote_id), so a vote
  // reaches the whole consortium even across a sparse topology.
  if (relay) broadcast_votes({vote}, peer.session_id());
  publish(fx, height);
}

TxAdmit P2pNode::submit_transaction(const ledger::SignedTransaction& stx) {
  return accept_transaction(stx, /*source_session=*/0);
}

std::vector<TxAdmit> P2pNode::submit_transactions(
    const std::vector<ledger::SignedTransaction>& stxs) {
  std::vector<AdmitRequest> requests(stxs.size());
  std::vector<AdmitRequest*> pointers;
  pointers.reserve(stxs.size());
  for (std::size_t i = 0; i < stxs.size(); ++i) {
    requests[i].stx = &stxs[i];
    pointers.push_back(&requests[i]);
  }
  if (!pointers.empty()) enqueue_and_settle(pointers);
  std::vector<TxAdmit> verdicts;
  verdicts.reserve(requests.size());
  for (const AdmitRequest& r : requests) verdicts.push_back(r.result);
  return verdicts;
}

TxAdmit P2pNode::accept_transaction(const ledger::SignedTransaction& stx,
                                    std::uint64_t source_session) {
  AdmitRequest req;
  req.stx = &stx;
  req.source_session = source_session;
  enqueue_and_settle({&req});
  return req.result;
}

void P2pNode::enqueue_and_settle(const std::vector<AdmitRequest*>& requests) {
  // Stamp before parking so the verify-stage latency includes combining-queue
  // wait (tx.id() is cached on the transaction; no hashing here).
  for (const AdmitRequest* r : requests) {
    stage_tracker_.stamp(r->stx->tx.id(), TxStage::submitted);
  }
  std::unique_lock<std::mutex> qlock(admit_mu_);
  for (AdmitRequest* r : requests) admit_queue_.push_back(r);
  if (admit_leader_active_) {
    // A leader is draining the queue; it will settle these requests too.
    admit_cv_.wait(qlock, [&] {
      return std::all_of(requests.begin(), requests.end(),
                         [](const AdmitRequest* r) { return r->done; });
    });
    return;
  }

  // Become the combining leader: drain the queue in batches until it is
  // empty.  The leader's own requests ride in the first batches; leadership
  // is released only under admit_mu_ so no enqueuer can slip between the
  // final empty-check and the release and wait forever.
  admit_leader_active_ = true;
  std::vector<AdmitRequest*> batch;
  while (!admit_queue_.empty()) {
    const std::size_t n =
        std::min(admit_queue_.size(), std::max<std::size_t>(config_.admit_batch_max, 1));
    batch.assign(admit_queue_.begin(),
                 admit_queue_.begin() + static_cast<std::ptrdiff_t>(n));
    admit_queue_.erase(admit_queue_.begin(),
                       admit_queue_.begin() + static_cast<std::ptrdiff_t>(n));
    qlock.unlock();
    process_admit_batch(batch);
    qlock.lock();
    for (AdmitRequest* r : batch) r->done = true;
    admit_cv_.notify_all();
  }
  admit_leader_active_ = false;
}

void P2pNode::process_admit_batch(const std::vector<AdmitRequest*>& batch) {
  obs::live::ScopedTimer admit_timer(live_.admit_batch);
  // Stage 1 — stateless checks, no locks: the key registry is immutable
  // after construction.
  for (AdmitRequest* r : batch) {
    r->pub = registry_->lookup(r->stx->tx.sender());
    if (!r->pub.has_value()) r->result = TxAdmit::unknown_sender;
  }

  // Stage 2 — signature verification, still outside the consensus lock.
  // One random-linear-combination check covers the whole batch; if it fails,
  // fall back to per-item verification so only the forged items are charged.
  std::vector<AdmitRequest*> checking;
  std::vector<crypto::BatchVerifyItem> items;
  for (AdmitRequest* r : batch) {
    if (r->result != TxAdmit::accepted) continue;
    checking.push_back(r);
    items.push_back({*r->pub, r->stx->tx.id(), r->stx->signature});
  }
  if (!checking.empty() && !crypto::verify_batch(items)) {
    for (std::size_t i = 0; i < checking.size(); ++i) {
      if (!crypto::verify(items[i].pub, items[i].msg, items[i].sig)) {
        checking[i]->result = TxAdmit::bad_signature;
      }
    }
  }
  for (const AdmitRequest* r : batch) {
    if (r->result == TxAdmit::accepted) {
      stage_tracker_.stamp(r->stx->tx.id(), TxStage::verified);
    }
  }

  // Stage 3 — stateful admission: one consensus-lock acquisition settles the
  // whole batch (confirmed-duplicate check, nonce window, pool insert,
  // stats).
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (AdmitRequest* r : batch) {
      ++stats_.txs_submitted;
      TxAdmit& admit = r->result;
      const ledger::Transaction& tx = r->stx->tx;
      if (admit == TxAdmit::accepted) {
        if (reconciler_.block_of(tx.id()).has_value()) {
          admit = TxAdmit::known_confirmed;
        } else {
          const std::uint64_t next =
              state_.state_at(core_.tree(), core_.head())
                  .account(tx.sender())
                  .next_nonce;
          if (tx.nonce() < next) {
            admit = TxAdmit::stale_nonce;
          } else if (tx.nonce() >= next + config_.max_nonce_gap) {
            admit = TxAdmit::nonce_gap;
          } else if (!pool_.add(*r->stx)) {
            admit = TxAdmit::duplicate;
          } else {
            // Under mu_ on purpose: the miner also includes under mu_, so
            // the pooled stamp always precedes any inclusion stamp.
            stage_tracker_.stamp(tx.id(), TxStage::pooled);
          }
        }
      }
      live_.txs_submitted->inc();
      switch (admit) {
        case TxAdmit::accepted:
          ++stats_.txs_accepted;
          live_.txs_accepted->inc();
          break;
        case TxAdmit::duplicate:
        case TxAdmit::known_confirmed:
          ++stats_.txs_duplicate;
          live_.txs_duplicate->inc();
          break;
        default:
          ++stats_.txs_rejected;
          live_.txs_rejected->inc();
          break;
      }
    }
  }

  // Stage 4 — traces and one batched inventory announcement.
  std::vector<std::pair<Hash32, std::uint64_t>> accepted;
  for (AdmitRequest* r : batch) {
    const ledger::Transaction& tx = r->stx->tx;
    if (r->result == TxAdmit::accepted) {
      trace("tx_accepted",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::u64("sender", tx.sender()),
             obs::Field::u64("nonce", tx.nonce()),
             obs::Field::boolean("rpc", r->source_session == 0)});
      accepted.emplace_back(tx.id(), r->source_session);
    } else {
      trace("tx_rejected",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::str("reason", std::string(to_string(r->result)))});
    }
  }
  if (!accepted.empty()) announce(consensus::kP2pTxInv, accepted);
}

void P2pNode::announce(
    std::uint32_t type,
    const std::vector<std::pair<Hash32, std::uint64_t>>& items) {
  for (const auto& peer : peers_->ready_peers()) {
    InvMsg inv;
    for (const auto& [id, source_session] : items) {
      if (peer->session_id() == source_session) continue;
      if (!peer->mark_known(id)) continue;  // peer already has / was offered it
      inv.hashes.push_back(id);
    }
    if (!inv.hashes.empty()) peer->send_frame(type, inv.encode());
  }
}

// ---------------------------------------------------------------------------
// Chain: the live-only half of every ChainCore call
// ---------------------------------------------------------------------------

bool P2pNode::replay_body_locked(const Block& block) {
  // Every transaction must apply cleanly in order against the parent state.
  // A spent nonce or drained balance here is a double-spend attempt smuggled
  // into a block — reject the whole block.  The replay runs on a
  // copy-on-write overlay of the parent snapshot, and the touched-account
  // delta is cached so materializing this block's state later costs a few
  // account writes instead of a second full replay.
  state::ScratchState scratch(
      state_.state_at(core_.tree(), block.header().prev));
  for (const ledger::Transaction& tx : block.transactions()) {
    if (!applies_cleanly(scratch, tx)) return false;
  }
  state_.record_delta(block.id(), scratch.take_delta());
  return true;
}

bool P2pNode::submit_block(BlockPtr block, std::uint64_t source_session) {
  obs::live::ScopedTimer submit_timer(live_.block_submit);
  const BlockHash id = block->id();
  consensus::ChainCore::Effects fx;
  std::uint64_t height = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (source_session != 0) {
      ++stats_.blocks_received;
      live_.blocks_received->inc();
    }
    requested_.erase(id);
    fx = core_.add_block(std::move(block));
    if (fx.duplicate && source_session != 0) ++stats_.blocks_duplicate;
    absorb_locked(fx);
    height = core_.head_height();
  }

  if (fx.orphaned) {
    // Chase the missing ancestry from whoever gave us the block, even if
    // the parent's announcement never reaches us.
    for (const auto& peer : peers_->ready_peers()) {
      if (peer->session_id() == source_session) request_sync(*peer);
    }
  }
  if (fx.inserted.empty()) return false;

  trace("block_accepted",
        {obs::Field::u64("node", config_.id),
         obs::Field::str("hash", short_hex(id)),
         obs::Field::u64("batch", fx.inserted.size()),
         obs::Field::boolean("mined", source_session == 0),
         obs::Field::boolean("reorg", fx.reorg)});
  publish(fx, height);

  // Inventory-based announcement: the duplicate-suppression accounting
  // net/gossip models with its per-node seen sets.
  std::vector<std::pair<Hash32, std::uint64_t>> news;
  for (const BlockPtr& b : fx.inserted) {
    news.emplace_back(b->id(), source_session);
  }
  announce(consensus::kP2pInv, news);
  return true;
}

void P2pNode::absorb_locked(const consensus::ChainCore::Effects& fx) {
  for (const BlockPtr& block : fx.inserted) {
    // Inclusion stamps before the reconcile below, so a confirm stamp from
    // the reconciler (same mu_ hold) is always later.
    for (const ledger::Transaction& tx : block->transactions()) {
      stage_tracker_.stamp(tx.id(), TxStage::included);
    }
    if (store_ != nullptr) store_->append(*block);
  }
  for (const BlockPtr& block : fx.rejected) {
    ++stats_.blocks_rejected;
    live_.blocks_rejected->inc();
    obs::live::log_warn(
        "chain", "block rejected",
        {{"hash", short_hex(block->id())},
         {"height", block->header().height},
         {"producer", static_cast<std::uint64_t>(block->header().producer)}});
  }
  if (fx.below_finalized) ++stats_.reorgs_refused_finality;
  if (fx.reorg) {
    ++stats_.reorgs;
    live_.reorgs->inc();
  }
  if (fx.head_changed) live_.head_changes->inc();
  stats_.ckpt_votes_sent += fx.votes.size();
  live_.ckpt_votes_sent->inc(fx.votes.size());
  stats_.ckpt_certs_formed += fx.certificates;
  live_.ckpt_certs->inc(fx.certificates);
  for (const finality::CheckpointCertificate& cert : fx.finalized) {
    // Every downstream floor keys off the hard anchor from here on: state
    // pins, pool confirmation immutability, snapshots.
    state_.set_finalized_floor(cert.height);
    reconciler_.set_finalized(cert.height, cert.block);
    obs::live::log_info(
        "finality", "checkpoint finalized",
        {{"height", cert.height},
         {"hash", short_hex(cert.block)},
         {"votes", static_cast<std::uint64_t>(cert.voters.size())},
         {"forced", fx.forced}});
    trace("checkpoint_finalized",
          {obs::Field::u64("node", config_.id),
           obs::Field::u64("height", cert.height),
           obs::Field::u64("votes", cert.voters.size()),
           obs::Field::boolean("forced", fx.forced)});
  }
  if (fx.head_changed) {
    // Reconcile the pool with the new main chain: confirmed txs leave,
    // abandoned ones return (a forced finality switch included), permanently
    // stale ones are purged.
    const auto rec = reconciler_.on_head_change(
        core_.tree(), fx.old_head, core_.head(), pool_,
        state_.state_at(core_.tree(), core_.head()));
    stats_.txs_confirmed += rec.confirmed;
    stats_.txs_returned += rec.returned;
    stats_.txs_purged += rec.purged;
  }
  if (fx.head_changed || !fx.finalized.empty()) maybe_snapshot_locked();
}

void P2pNode::publish(const consensus::ChainCore::Effects& fx,
                      std::uint64_t head_height) {
  if (fx.head_changed) {
    chain_version_.fetch_add(1, std::memory_order_release);
    miner_cv_.notify_all();
    trace("head_changed", {obs::Field::u64("node", config_.id),
                           obs::Field::u64("height", head_height),
                           obs::Field::boolean("reorg", fx.reorg)});
    if (fx.reorg) {
      obs::live::log_info("chain", "reorg",
                          {{"height", head_height}, {"forced", fx.forced}});
    } else {
      obs::live::log_debug("chain", "head changed", {{"height", head_height}});
    }
    if (head_listener_) head_listener_(*this);
  }
  // Our own checkpoint votes go to everyone (including the block's source).
  broadcast_votes(fx.votes, /*exclude_session=*/0);
}

void P2pNode::broadcast_votes(
    const std::vector<finality::CheckpointVote>& votes,
    std::uint64_t exclude_session) {
  if (votes.empty()) return;
  for (const auto& peer : peers_->ready_peers()) {
    if (peer->session_id() != exclude_session) send_votes(*peer, votes);
  }
}

// ---------------------------------------------------------------------------
// Miner
// ---------------------------------------------------------------------------

void P2pNode::mine_loop() {
  Rng rng(config_.rng_seed * 0x2545f4914f6cdd1dULL + config_.id + 1);
  while (!stopping_.load()) {
    if (!mining_enabled_.load()) {
      std::unique_lock<std::mutex> lock(miner_mu_);
      miner_cv_.wait_for(lock, std::chrono::milliseconds(200));
      continue;
    }

    // Snapshot the mining target under the consensus lock.
    ledger::BlockHeader header;
    std::vector<ledger::Transaction> body;
    std::uint64_t version;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const ledger::BlockTree& tree = core_.tree();
      const BlockHash parent = core_.head();
      header.height = core_.head_height() + 1;
      header.prev = parent;
      header.producer = config_.id;
      header.epoch = core_.policy().epoch_for(tree, parent);
      header.difficulty =
          core_.policy().difficulty_for(tree, parent, config_.id);
      // Fill the candidate body from the pool (§III: "pick transactions from
      // the transaction pool"), replaying each candidate against a
      // copy-on-write overlay of the parent state so the block carries no
      // double-spend and a sender's queued nonce chain fits into a single
      // block.
      state::ScratchState scratch(state_.state_at(tree, parent));
      body = pool_.select(config_.max_block_txs,
                          [&scratch](const ledger::Transaction& tx) {
                            return applies_cleanly(scratch, tx);
                          });
      std::vector<ledger::TxId> tx_ids;
      tx_ids.reserve(body.size());
      for (const ledger::Transaction& tx : body) tx_ids.push_back(tx.id());
      header.tx_count = static_cast<std::uint32_t>(body.size());
      header.merkle_root = crypto::merkle_root(tx_ids);
      version = chain_version_.load(std::memory_order_acquire);
    }
    header.timestamp_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count();
    std::uint64_t nonce = rng.next_u64();

    // Grind in chunks; between chunks re-check for head changes (memoryless:
    // restarting the search loses nothing statistically) and stop requests.
    while (!stopping_.load() && mining_enabled_.load() &&
           chain_version_.load(std::memory_order_acquire) == version) {
      const auto solved = RealMiner::mine(header, nonce, config_.mine_chunk);
      if (!solved.has_value()) {
        nonce += config_.mine_chunk;
        if (nonce > UINT64_MAX - config_.mine_chunk) nonce = rng.next_u64();
        continue;
      }
      auto block = std::make_shared<const Block>(
          *solved, keypair_.sign(solved->hash()), std::move(body));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.blocks_produced;
      }
      live_.blocks_mined->inc();
      obs::live::log_debug(
          "miner", "block mined",
          {{"hash", short_hex(block->id())},
           {"height", solved->height},
           {"txs", static_cast<std::uint64_t>(block->transactions().size())}});
      trace("block_mined", {obs::Field::u64("node", config_.id),
                            obs::Field::str("hash", short_hex(block->id())),
                            obs::Field::u64("height", solved->height),
                            obs::Field::u64("txs", block->transactions().size())});
      submit_block(std::move(block), /*source_session=*/0);
      break;  // resample against the (possibly new) head
    }
  }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

BlockHash P2pNode::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.head();
}

std::uint64_t P2pNode::head_height() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.head_height();
}

std::uint64_t P2pNode::tree_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.tree().subtree_size(core_.tree().genesis_hash());
}

std::uint64_t P2pNode::store_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ != nullptr ? store_->size() : 0;
}

bool P2pNode::contains(const BlockHash& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.tree().contains(id);
}

P2pNode::ChainStats P2pNode::chain_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ChainStats stats = stats_;
  stats.finalized_height = core_.finalized_height();
  stats.requests_in_flight = requested_.size();
  return stats;
}

double P2pNode::uptime_seconds() const {
  if (!started_.load(std::memory_order_relaxed)) return 0.0;
  return static_cast<double>(wall_nanos()) / 1e9;
}

bool P2pNode::ready() const {
  return started_.load(std::memory_order_relaxed) &&
         (config_.peers.empty() || peers_->ready_peer_count() > 0);
}

double P2pNode::redundant_announce_ratio() const {
  const ChainStats s = chain_stats();
  return s.invs_received == 0
             ? 0.0
             : static_cast<double>(s.invs_redundant) /
                   static_cast<double>(s.invs_received);
}

P2pNode::TxStatusInfo P2pNode::tx_status(const ledger::TxId& id) const {
  TxStatusInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto block_hash = reconciler_.block_of(id);
    if (block_hash.has_value()) {
      info.state = TxStatusInfo::State::confirmed;
      info.block = *block_hash;
      info.block_height = core_.tree().height(*block_hash);
      const std::uint64_t head_height = core_.head_height();
      info.confirmations = head_height >= info.block_height
                               ? head_height - info.block_height + 1
                               : 0;
      for (const ledger::Transaction& tx :
           core_.tree().block(*block_hash)->transactions()) {
        if (tx.id() == id) {
          info.tx = tx;
          break;
        }
      }
      return info;
    }
  }
  const auto pending = pool_.get(id);
  if (pending.has_value()) {
    info.state = TxStatusInfo::State::pending;
    info.tx = pending->tx;
  }
  return info;
}

P2pNode::AccountInfo P2pNode::account_info(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const state::Account& account =
      state_.state_at(core_.tree(), core_.head()).account(id);
  return AccountInfo{account.balance, account.next_nonce};
}

const Hash32& P2pNode::ensure_root_locked() const {
  const ledger::BlockHash head = core_.head();
  if (root_valid_ && root_head_ == head) return root_cache_.root();
  const state::LedgerState& state = state_.state_at(core_.tree(), head);
  // Incremental path: if the previous root head is an ancestor within a
  // short parent walk and every block in between recorded a validation
  // delta, only the pages those deltas touched need re-hashing.  A reorg
  // (old head not an ancestor) or a missing delta falls back to a full
  // rebuild, so the cache can never serve a stale root.
  static constexpr std::size_t kMaxIncrementalWalk = 64;
  bool incremental = false;
  std::vector<ledger::NodeId> touched;
  if (root_valid_) {
    ledger::BlockHash cursor = head;
    for (std::size_t steps = 0; steps <= kMaxIncrementalWalk; ++steps) {
      if (cursor == root_head_) {
        incremental = true;
        break;
      }
      const state::StateDelta* delta = state_.delta(cursor);
      if (delta == nullptr) break;
      for (const auto& [id, account] : delta->accounts) touched.push_back(id);
      const auto parent = core_.tree().parent(cursor);
      if (!parent.has_value()) break;
      cursor = *parent;
    }
  }
  if (incremental) {
    root_cache_.update(state, touched);
  } else {
    root_cache_.rebuild(state);
  }
  root_head_ = head;
  root_valid_ = true;
  return root_cache_.root();
}

Hash32 P2pNode::head_state_root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ensure_root_locked();
}

UInt128 P2pNode::total_supply() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.state_at(core_.tree(), core_.head()).total_supply();
}

P2pNode::BalanceProof P2pNode::balance_proof(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  BalanceProof result;
  result.head = core_.head();
  result.height = core_.head_height();
  result.state_root = ensure_root_locked();
  const state::LedgerState& state = state_.state_at(core_.tree(), result.head);
  result.account = state.account(id);
  // The root cache already holds every page hash for the head, so proof
  // construction only encodes the one target page instead of re-hashing the
  // whole state (prove_account's O(accounts) path).
  const std::uint32_t page = state::authstate::page_of(id);
  const std::uint32_t page_count = root_cache_.page_count();
  result.proof.page = page;
  result.proof.page_count = page_count;
  if (page < page_count) {
    result.available = true;
    result.proof.page_bytes = state::authstate::encode_page(state, page);
    result.proof.steps = crypto::merkle_prove(root_cache_.page_hashes(), page);
  }
  return result;
}

void P2pNode::maybe_snapshot_locked() {
  if (config_.snapshot_interval == 0 || config_.datadir.empty()) return;
  const std::uint64_t anchor_height = core_.tracker().anchor_height();
  if (anchor_height < last_snapshot_height_ + config_.snapshot_interval) {
    return;
  }
  const ledger::BlockHash anchor = core_.tracker().anchor();
  state::authstate::Snapshot snap;
  snap.height = anchor_height;
  snap.block = anchor;
  snap.state = state_.state_at(core_.tree(), anchor);
  if (!state::authstate::write_snapshot(config_.datadir / "state.snap",
                                        snap)) {
    obs::live::log_warn("chain", "snapshot write failed",
                        {{"height", anchor_height}});
    return;
  }
  // Pin the anchor state so the next snapshot replays only the interval
  // since this one, not the whole chain from the tree root.
  state_.pin_anchor(core_.tree(), anchor);
  last_snapshot_height_ = anchor_height;
  stats_.snapshot_height = anchor_height;
  ++stats_.snapshots_written;
  obs::live::log_info(
      "chain", "snapshot written",
      {{"height", anchor_height},
       {"accounts", static_cast<std::uint64_t>(snap.state.accounts().size())}});
  if (config_.prune && store_ != nullptr) {
    const std::size_t removed = store_->prune_below(anchor_height);
    stats_.blocks_pruned += removed;
    if (removed > 0) {
      obs::live::log_info("chain", "pruned block store",
                          {{"below", anchor_height},
                           {"removed", static_cast<std::uint64_t>(removed)}});
    }
  }
}

std::optional<P2pNode::BlockInfo> P2pNode::block_info(
    const ledger::BlockHash& hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!core_.tree().contains(hash)) return std::nullopt;
  BlockInfo info;
  info.block = core_.tree().block(hash);
  info.on_main_chain = core_.tree().is_ancestor(hash, core_.head());
  if (info.on_main_chain) {
    info.confirmations = core_.head_height() - core_.tree().height(hash) + 1;
  }
  return info;
}

std::optional<P2pNode::BlockInfo> P2pNode::block_info_at(
    std::uint64_t height) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t head_height = core_.head_height();
  if (height > head_height) return std::nullopt;
  BlockHash cursor = core_.head();
  for (std::uint64_t h = head_height; h > height; --h) {
    const auto parent = core_.tree().parent(cursor);
    if (!parent.has_value()) return std::nullopt;
    cursor = *parent;
  }
  BlockInfo info;
  info.block = core_.tree().block(cursor);
  info.on_main_chain = true;
  info.confirmations = head_height - height + 1;
  return info;
}

P2pNode::FinalityInfo P2pNode::finality_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  FinalityInfo info;
  const finality::CheckpointTracker* ckpt = core_.checkpoints();
  info.enabled = ckpt != nullptr;
  info.head_height = core_.head_height();
  if (ckpt == nullptr) return info;
  info.interval = ckpt->interval();
  info.finalized_height = core_.finalized_height();
  info.lag = info.head_height - info.finalized_height;
  if (const finality::CheckpointCertificate* cert =
          ckpt->certificate(info.finalized_height)) {
    info.finalized_block = cert->block;
    info.latest_votes = cert->voters.size();
  }
  return info;
}

std::optional<finality::CheckpointCertificate> P2pNode::checkpoint_certificate(
    std::uint64_t height) const {
  std::lock_guard<std::mutex> lock(mu_);
  const finality::CheckpointTracker* ckpt = core_.checkpoints();
  if (ckpt == nullptr) return std::nullopt;
  const finality::CheckpointCertificate* cert = ckpt->certificate(height);
  if (cert == nullptr) return std::nullopt;
  return *cert;
}

std::uint64_t P2pNode::next_nonce_hint(ledger::NodeId sender) const {
  std::uint64_t state_next = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_next =
        state_.state_at(core_.tree(), core_.head()).account(sender).next_nonce;
  }
  return pool_.next_nonce_hint(sender, state_next);
}

void P2pNode::fill_observability() {
  if (obs_ == nullptr) return;
  const ChainStats chain = chain_stats();
  const PeerManager::Stats transport = peers_->stats();
  obs::Counters& counters = obs_->counters;

  counters.counter("chain.height") = head_height();
  counters.counter("chain.tree_blocks") = tree_blocks();
  counters.counter("chain.store_blocks") = store_blocks();
  counters.counter("chain.store_replayed") = chain.store_replayed;
  counters.counter("consensus.blocks_produced") = chain.blocks_produced;
  counters.counter("consensus.blocks_rejected") = chain.blocks_rejected;
  counters.counter("consensus.reorgs") = chain.reorgs;

  counters.counter("finality.height") = chain.finalized_height;
  counters.counter("finality.votes_sent") = chain.ckpt_votes_sent;
  counters.counter("finality.votes_received") = chain.ckpt_votes_received;
  counters.counter("finality.votes_accepted") = chain.ckpt_votes_accepted;
  counters.counter("finality.votes_rejected") = chain.ckpt_votes_rejected;
  counters.counter("finality.certificates") = chain.ckpt_certs_formed;
  counters.counter("finality.reorgs_refused") = chain.reorgs_refused_finality;

  counters.counter("p2p.bytes_in") = transport.bytes_in;
  counters.counter("p2p.bytes_out") = transport.bytes_out;
  counters.counter("p2p.connections_accepted") = transport.connections_accepted;
  counters.counter("p2p.dials_attempted") = transport.dials_attempted;
  counters.counter("p2p.dials_failed") = transport.dials_failed;
  counters.counter("p2p.reconnects") = transport.reconnects;
  counters.counter("p2p.handshakes_rejected") = transport.handshakes_rejected;
  counters.counter("p2p.protocol_errors") = transport.protocol_errors;
  counters.counter("p2p.disconnects") = transport.disconnects;
  counters.counter("p2p.pings_sent") = transport.pings_sent;
  counters.counter("p2p.pongs_received") = transport.pongs_received;
  counters.counter("p2p.ping_timeouts") = transport.ping_timeouts;

  counters.counter("p2p.invs_received") = chain.invs_received;
  counters.counter("p2p.invs_redundant") = chain.invs_redundant;
  counters.counter("p2p.blocks_received") = chain.blocks_received;
  counters.counter("p2p.blocks_duplicate") = chain.blocks_duplicate;
  counters.counter("p2p.sync_requests_served") = chain.sync_requests_served;
  counters.counter("p2p.sync_blocks_served") = chain.sync_blocks_served;
  counters.counter("p2p.sync_rounds") = chain.sync_rounds;
  obs_->counters.series("p2p.redundant_announce_ratio")
      .push_back(redundant_announce_ratio());

  counters.counter("tx.submitted") = chain.txs_submitted;
  counters.counter("tx.accepted") = chain.txs_accepted;
  counters.counter("tx.rejected") = chain.txs_rejected;
  counters.counter("tx.duplicate") = chain.txs_duplicate;
  counters.counter("tx.relayed") = chain.txs_relayed;
  counters.counter("tx.received") = chain.txs_received;
  counters.counter("tx.invs_received") = chain.tx_invs_received;
  counters.counter("tx.invs_redundant") = chain.tx_invs_redundant;
  counters.counter("tx.confirmed") = chain.txs_confirmed;
  counters.counter("tx.returned") = chain.txs_returned;
  counters.counter("tx.purged") = chain.txs_purged;
  counters.counter("tx.pool_depth") = pool_.size();
  counters.series("tx.pool_depth").push_back(static_cast<double>(pool_.size()));

  // Per-peer traffic, attributed to the remote's consensus node id.
  for (const auto& peer : peers_->ready_peers()) {
    obs::LinkStat& link = counters.link(
        static_cast<std::uint32_t>(config_.id),
        static_cast<std::uint32_t>(peer->remote().node_id));
    link.messages = peer->frames_in.load(std::memory_order_relaxed) +
                    peer->frames_out.load(std::memory_order_relaxed);
    link.bytes = peer->bytes_in.load(std::memory_order_relaxed) +
                 peer->bytes_out.load(std::memory_order_relaxed);
  }
}

}  // namespace themis::p2p
