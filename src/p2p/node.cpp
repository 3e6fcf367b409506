#include "p2p/node.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "consensus/miner.h"
#include "consensus/wire.h"
#include "crypto/merkle.h"
#include "obs/live/log.h"
#include "p2p/sync.h"

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
/// evicted from its pool) would otherwise stay forever.  An id that confirms
/// first leaves at once (the reconciler's confirm hook).
constexpr std::size_t kMaxRequestsInFlight = 4 * kMaxInvHashes;

static_assert(consensus::ChainCore::kMaxOrphans >= 2 * kMaxSyncBlocks,
              "one orphaned sync batch must fit the orphan buffer");

/// Consecutive fully-duplicate sync batches tolerated per peer before we stop
/// re-requesting (Peer::sync_stalls).
constexpr std::uint32_t kMaxSyncStalls = 3;

/// Nonces ground between chain- and pool-version checks: smaller cancels
/// mining faster, larger costs less overhead.
constexpr std::uint64_t kMineChunk = 2048;

/// Transaction-pool capacity (oldest evicted beyond this).
constexpr std::size_t kPoolCapacity = 1 << 20;

/// Admission window for future nonces: a transaction this far beyond the
/// sender's next expected nonce is rejected as junk.
constexpr std::uint64_t kMaxNonceGap = 1024;

/// Software identifier sent in every handshake (HandshakeMsg::agent).
constexpr const char* kAgent = "themis-noded/1.0";

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

/// Blocks behind the head where the fork-choice walk starts.
constexpr std::uint64_t kFinalityDepth = 16;

consensus::ChainCoreConfig core_config(const P2pNodeConfig& config) {
  consensus::ChainCoreConfig core;
  core.id = config.id;
  core.n_nodes = config.n_nodes;
  core.finality_depth = kFinalityDepth;
  core.use_signatures = true;
  core.check_work = true;
  core.checkpoint_interval = config.checkpoint_interval;
  core.finality_backend = config.finality_backend;
  return core;
}

}  // namespace

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
      state_(genesis_allocation(config_),
             config_.datadir.empty() ? std::filesystem::path{}
                                     : config_.datadir / "state.snap",
             config_.snapshot_interval, config_.prune),
      pool_(kPoolCapacity),
      admission_(
          registry_, live_registry_,
          [this](std::span<TxAdmission::Request> batch) {
            admit_stateful(batch);
          },
          [this](std::span<TxAdmission::Request> batch) {
            announce_admitted(batch);
          }) {
  expects(config_.n_nodes >= 1, "p2p node set must be non-empty");
  expects(config_.id < config_.n_nodes, "node id out of range");
  expects(config_.snapshot_interval == 0 || config_.checkpoint_interval > 0,
          "snapshots need checkpoint finality");
  core_.set_body_check([this](const Block& block) {
    return state_.replay_body(core_.tree(), block);
  });

  PeerManagerConfig pm;
  pm.listen_port = config_.listen_port;
  pm.listen = config_.listen;
  pm.dial = config_.peers;
  pm.handshake.genesis = core_.tree().genesis_hash();
  pm.handshake.node_id = config_.id;
  pm.handshake.agent = kAgent;
  pm.ping_interval_ms = config_.ping_interval_ms;
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

  // Confirmation stamps ride the reconciler: it fires per newly-confirmed tx
  // under mu_, after the inclusion stamps of the same head change.  A getdata
  // for the tx is moot from here on: the peer's pool no longer has it, and
  // handle_inv never requests a confirmed id again.
  reconciler_.set_confirm_hook([this](const ledger::TxId& id) {
    stage_tracker_.stamp(id, TxStage::confirmed, obs::live::monotonic_ns());
    requested_.erase(id);
  });

  // Every node-level live metric, registered once; the hot paths bump the
  // cached pointers in live_, never look up by name.
  obs::live::Registry& r = live_registry_;
  live_.blocks_mined = &r.counter(
      "themis_blocks_mined_total", "Blocks mined by this node.");
  live_.template_refreshes = &r.counter(
      "themis_miner_template_refreshes_total",
      "Miner templates re-taken mid-grind because the pool grew.");
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
  live_.block_submit = &r.histogram(
      "themis_block_submit_seconds",
      "Latency of block validate + insert + head update + pool reconcile.");
  pool_.set_live_counters(
      &r.counter("themis_pool_added_total", "TxPool inserts."),
      &r.counter("themis_pool_evicted_total",
                 "TxPool capacity evictions (oldest first)."));
  // Instantaneous values the components already maintain are read at scrape
  // time instead of being mirrored on the hot path.
  r.gauge_fn("themis_pool_depth", "Pending transactions in the TxPool.",
             [this] { return static_cast<double>(pool_depth()); });
  r.gauge_fn("themis_block_bodies_resident",
             "Block-tree entries holding a decoded body.", [this] {
               std::lock_guard<std::mutex> lock(mu_);
               return static_cast<double>(core_.tree().bodies_resident());
             });
  r.gauge_fn("themis_confirmed_tx_index_entries",
             "Entries in the confirmed-transaction index.", [this] {
               std::lock_guard<std::mutex> lock(mu_);
               return static_cast<double>(reconciler_.indexed());
             });
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
    store_ =
        std::make_unique<ledger::BlockStore>(config_.datadir / "blocks.dat");
    // Released bodies come back from the store (always under mu_: its
    // reader is not thread-safe).
    core_.set_body_loader([this](const BlockHash& id) -> BlockPtr {
      auto block = store_->read_by_id(id);
      if (!block.has_value()) return nullptr;
      return std::make_shared<const Block>(*std::move(block));
    });
    core_.reset(state_.restore(*store_));
    // The confirmed-tx index covers the replayed main chain, so tx_status
    // and duplicate suppression survive a restart.
    reconciler_.rebuild(core_.tree(), core_.head());
  }
  trace("node_start", {obs::Field::u64("node", config_.id),
                       obs::Field::u64("replayed", state_.stats().store_replayed),
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
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  std::lock_guard<std::mutex> lock(trace_mu_);
  tracer_->emit(SimTime(wall_nanos()), event, fields);
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
  // way it inherits the chain.  Offer our retained checkpoint votes the same
  // way: a freshly connected (or partition-healed) peer can be brought to
  // quorum — and force-switched onto the certified chain — from the retained
  // window alone.
  std::vector<ledger::TxId> pending;
  std::vector<finality::CheckpointVote> retained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending = pool_.ids(kMaxInvHashes);
    if (const auto* ckpt = core_.checkpoints()) {
      retained = ckpt->retained_votes();
    }
  }
  InvMsg pool_inv;
  for (const ledger::TxId& id : pending) {
    if (peer.mark_known(id)) pool_inv.hashes.push_back(id);
  }
  if (!pool_inv.hashes.empty()) {
    peer.send_frame(consensus::kP2pTxInv, pool_inv.encode());
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
    (txs ? stats_.tx_invs_received : stats_.invs_received) +=
        inv.hashes.size();
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
      const bool known = txs ? pool_.contains(h) || reconciler_.confirmed(h)
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
  std::vector<BlockPtr> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const BlockHash& h : request.hashes) {
      // Unknown, or released and pruned: skip.
      if (BlockPtr block = core_.tree().body(h)) {
        found.push_back(std::move(block));
      }
    }
  }
  for (const BlockPtr& block : found) {
    peer.mark_known(block->id());
    if (!peer.send_frame(consensus::kP2pBlock, block->encode())) return;
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
  std::vector<BlockPtr> range;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t max_blocks =
        std::min<std::size_t>(request.max_blocks, kMaxSyncBlocks);
    range = serve_range(core_.tree(), core_.head(), request.locator,
                        max_blocks, kSyncBatchBytes);
  }
  BlocksMsg response;
  response.blocks.reserve(range.size());
  for (const BlockPtr& block : range) {
    response.blocks.push_back(block->encode());
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
  // Copy under the lock; encode and send outside it.  Confirmed or evicted
  // ids are silently skipped.
  std::vector<ledger::SignedTransaction> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ledger::TxId& id : request.hashes) {
      if (auto stx = pool_.get(id)) found.push_back(std::move(*stx));
    }
  }
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
  for (const ledger::SignedTransaction& stx : found) {
    peer.mark_known(stx.tx.id());
    Bytes encoded = stx.encode();
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

void P2pNode::handle_tx_batch(Peer& peer, ByteSpan payload) {
  const TxBatchMsg batch = TxBatchMsg::decode(payload);
  if (batch.txs.empty()) return;
  std::vector<ledger::SignedTransaction> stxs;
  stxs.reserve(batch.txs.size());
  for (const Bytes& raw : batch.txs) {
    stxs.push_back(ledger::SignedTransaction::decode(raw));
    peer.mark_known(stxs.back().tx.id());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.txs_received += stxs.size();
  }
  // The whole frame enters admission as one verification batch.  Its ids
  // stay in requested_ until admit_stateful settles them, so an inv for one
  // of them during verification fetches nothing.
  admission_.admit(stxs, peer.session_id());
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
    live_.ckpt_votes_received->inc();
    fx = core_.add_vote(vote);
    relay = *fx.vote == finality::VoteOutcome::accepted ||
            *fx.vote == finality::VoteOutcome::quorum;
    if (relay) {
      live_.ckpt_votes_accepted->inc();
    } else if (*fx.vote != finality::VoteOutcome::duplicate &&
               *fx.vote != finality::VoteOutcome::stale) {
      // Duplicates and stale votes are benign gossip races; the rest are
      // protocol violations (equivocation, unknown voter, bad signature).
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
  return admission_.admit({stx}, /*source_session=*/0).front();
}

std::vector<TxAdmit> P2pNode::submit_transactions(
    const std::vector<ledger::SignedTransaction>& stxs) {
  return admission_.admit(stxs, /*source_session=*/0);
}

void P2pNode::admit_stateful(std::span<TxAdmission::Request> batch) {
  // One consensus-lock acquisition settles the whole batch.
  std::lock_guard<std::mutex> lock(mu_);
  const state::LedgerState& head_state =
      state_.state_at(core_.tree(), core_.head());
  bool pooled = false;
  for (TxAdmission::Request& r : batch) {
    const ledger::Transaction& tx = r.stx->tx;
    requested_.erase(tx.id());
    stage_tracker_.stamp(tx.id(), TxStage::submitted, r.submitted_ns);
    if (r.verified_ns != 0) {
      stage_tracker_.stamp(tx.id(), TxStage::verified, r.verified_ns);
    }
    if (r.result != TxAdmit::accepted) continue;
    const std::uint64_t next = head_state.account(tx.sender()).next_nonce;
    if (reconciler_.confirmed(tx.id())) {
      r.result = TxAdmit::known_confirmed;
    } else if (tx.nonce() < next) {
      r.result = TxAdmit::stale_nonce;
    } else if (tx.nonce() >= next + kMaxNonceGap) {
      r.result = TxAdmit::nonce_gap;
    } else if (!pool_.add(*r.stx)) {
      r.result = TxAdmit::duplicate;
    } else {
      // Under mu_ on purpose: the miner also includes under mu_, so the
      // pooled stamp always precedes any inclusion stamp.
      stage_tracker_.stamp(tx.id(), TxStage::pooled, obs::live::monotonic_ns());
      pooled = true;
    }
  }
  // Under mu_ too: a template taken under mu_ with this version already
  // holds these transfers.
  if (pooled) pool_version_.fetch_add(1, std::memory_order_release);
}

void P2pNode::announce_admitted(std::span<TxAdmission::Request> batch) {
  std::vector<std::pair<Hash32, std::uint64_t>> accepted;
  for (const TxAdmission::Request& r : batch) {
    const ledger::Transaction& tx = r.stx->tx;
    if (r.result == TxAdmit::accepted) {
      trace("tx_accepted",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::u64("sender", tx.sender()),
             obs::Field::u64("nonce", tx.nonce()),
             obs::Field::boolean("rpc", r.source_session == 0)});
      accepted.emplace_back(tx.id(), r.source_session);
    } else {
      trace("tx_rejected",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::str("reason", std::string(to_string(r.result)))});
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

bool P2pNode::submit_block(BlockPtr block, std::uint64_t source_session) {
  obs::live::ScopedTimer submit_timer(live_.block_submit);
  const BlockHash id = block->id();
  consensus::ChainCore::Effects fx;
  std::uint64_t height = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (source_session != 0) live_.blocks_received->inc();
    requested_.erase(id);
    fx = core_.add_block(std::move(block));
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
      stage_tracker_.stamp(tx.id(), TxStage::included,
                           obs::live::monotonic_ns());
    }
    if (store_ != nullptr) store_->append(*block);
  }
  for (const BlockPtr& block : fx.rejected) {
    live_.blocks_rejected->inc();
    obs::live::log_warn(
        "chain", "block rejected",
        {{"hash", short_hex(block->id())},
         {"height", block->header().height},
         {"producer", static_cast<std::uint64_t>(block->header().producer)}});
  }
  if (fx.below_finalized) ++stats_.reorgs_refused_finality;
  if (fx.reorg) live_.reorgs->inc();
  if (fx.head_changed) live_.head_changes->inc();
  live_.ckpt_votes_sent->inc(fx.votes.size());
  live_.ckpt_certs->inc(fx.certificates);
  for (const finality::CheckpointCertificate& cert : fx.finalized) {
    // Every downstream floor keys off the hard anchor from here on: state
    // walks, pool confirmation immutability, snapshots.
    state_.set_finalized_floor(core_.tree(), cert.block);
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
    reconciler_.on_head_change(core_.tree(), fx.old_head, core_.head(), pool_,
                               state_.state_at(core_.tree(), core_.head()));
  }
  if (!fx.finalized.empty()) state_.maybe_snapshot(store_.get());
  // Last: one call can move the head onto a block and finalize it, and the
  // reconcile above must still see that block's body in memory.
  if (store_ != nullptr) {
    for (const finality::CheckpointCertificate& cert : fx.finalized) {
      core_.release_bodies(cert.block);
    }
  }
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
    std::uint64_t pool_version;
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
      // §III: "pick transactions from the transaction pool".
      body = state_.select_body(tree, parent, pool_, config_.max_block_txs);
      std::vector<ledger::TxId> tx_ids;
      tx_ids.reserve(body.size());
      for (const ledger::Transaction& tx : body) tx_ids.push_back(tx.id());
      header.tx_count = static_cast<std::uint32_t>(body.size());
      header.merkle_root = crypto::merkle_root(tx_ids);
      version = chain_version_.load(std::memory_order_acquire);
      pool_version = pool_version_.load(std::memory_order_acquire);
    }
    const bool room = body.size() < config_.max_block_txs;
    header.timestamp_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count();
    std::uint64_t nonce = rng.next_u64();

    // Grind in chunks; between chunks re-check for head changes, for pool
    // growth while the template has room (memoryless: restarting the search
    // loses nothing statistically) and for stop requests.
    while (!stopping_.load() && mining_enabled_.load() &&
           chain_version_.load(std::memory_order_acquire) == version) {
      const auto solved = RealMiner::mine(header, nonce, kMineChunk);
      if (!solved.has_value()) {
        // Checked after a chunk, not before: every template grinds at least
        // one, so admissions faster than chunks cannot starve the grind.
        if (room &&
            pool_version_.load(std::memory_order_acquire) != pool_version) {
          live_.template_refreshes->inc();
          break;  // re-take the template with the new transfers
        }
        nonce += kMineChunk;
        if (nonce > UINT64_MAX - kMineChunk) nonce = rng.next_u64();
        continue;
      }
      auto block = std::make_shared<const Block>(
          *solved, keypair_.sign(solved->hash()), std::move(body));
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

P2pNode::HeadInfo P2pNode::head_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  HeadInfo info;
  info.hash = core_.head();
  info.height = core_.head_height();
  info.state_root = state_.root(core_.tree(), info.hash);
  info.total_supply = state_.state_at(core_.tree(), info.hash).total_supply();
  return info;
}

P2pNode::ChainStats P2pNode::chain_stats() const {
  ChainStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    static_cast<state::ChainState::Stats&>(s) = state_.stats();
    const state::PoolReconciler::Stats& rec = reconciler_.totals();
    s.txs_confirmed = rec.confirmed;
    s.txs_returned = rec.returned;
    s.txs_purged = rec.purged;
    s.finalized_height = core_.finalized_height();
    s.requests_in_flight = requested_.size();
    s.bodies_resident = core_.tree().bodies_resident();
    s.txs_indexed = reconciler_.indexed();
  }
  const TxAdmission::Counts tx = admission_.counts();
  s.txs_submitted = tx.submitted;
  s.txs_accepted = tx.accepted;
  s.txs_rejected = tx.rejected;
  s.txs_duplicate = tx.duplicate;
  s.blocks_produced = live_.blocks_mined->get();
  s.template_refreshes = live_.template_refreshes->get();
  s.blocks_received = live_.blocks_received->get();
  s.blocks_rejected = live_.blocks_rejected->get();
  s.reorgs = live_.reorgs->get();
  s.ckpt_votes_sent = live_.ckpt_votes_sent->get();
  s.ckpt_votes_received = live_.ckpt_votes_received->get();
  s.ckpt_votes_accepted = live_.ckpt_votes_accepted->get();
  s.ckpt_votes_rejected = live_.ckpt_votes_rejected->get();
  s.ckpt_certs_formed = live_.ckpt_certs->get();
  return s;
}

double P2pNode::uptime_seconds() const {
  if (!started_.load(std::memory_order_relaxed)) return 0.0;
  return static_cast<double>(wall_nanos()) / 1e9;
}

bool P2pNode::ready() const {
  return started_.load(std::memory_order_relaxed) &&
         (config_.peers.empty() || peers_->ready_peer_count() > 0);
}

P2pNode::TxStatusInfo P2pNode::tx_status(const ledger::TxId& id) const {
  TxStatusInfo info;
  // One hold covers the index, the pool and the stamps, so a transaction
  // confirmed between the lookups is never reported unknown.
  std::lock_guard<std::mutex> lock(mu_);
  info.stages = stage_tracker_.stamps(id);
  const auto block_hash = reconciler_.block_of(core_.tree(), id);
  if (block_hash.has_value()) {
    info.state = TxStatusInfo::State::confirmed;
    info.block = *block_hash;
    info.block_height = core_.tree().height(*block_hash);
    const std::uint64_t head_height = core_.head_height();
    info.confirmations = head_height >= info.block_height
                             ? head_height - info.block_height + 1
                             : 0;
    // A finalized body comes back from the store; a pruned one leaves the
    // transaction itself unknown.
    if (const BlockPtr body = core_.tree().body(*block_hash)) {
      for (const ledger::Transaction& tx : body->transactions()) {
        if (tx.id() == id) {
          info.tx = tx;
          break;
        }
      }
    }
    return info;
  }
  const auto pending = pool_.get(id);
  if (pending.has_value()) {
    info.state = TxStatusInfo::State::pending;
    info.tx = pending->tx;
  }
  return info;
}

std::vector<P2pNode::TxStatusInfo::State> P2pNode::tx_states(
    const std::vector<ledger::TxId>& ids) const {
  using State = TxStatusInfo::State;
  std::vector<State> states;
  states.reserve(ids.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const ledger::TxId& id : ids) {
    states.push_back(reconciler_.confirmed(id) ? State::confirmed
                     : pool_.contains(id)      ? State::pending
                                               : State::unknown);
  }
  return states;
}

P2pNode::AccountInfo P2pNode::account_info(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.state_at(core_.tree(), core_.head()).account(id);
}

Hash32 P2pNode::head_state_root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.root(core_.tree(), core_.head());
}

UInt128 P2pNode::total_supply() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.state_at(core_.tree(), core_.head()).total_supply();
}

P2pNode::BalanceProof P2pNode::balance_proof(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BalanceProof{state_.prove(core_.tree(), core_.head(), id),
                      core_.head(), core_.head_height()};
}

std::optional<P2pNode::BlockInfo> P2pNode::block_info(
    const ledger::BlockHash& hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  BlockInfo info;
  info.block = core_.tree().body(hash);
  if (info.block == nullptr) return std::nullopt;
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
  info.block = core_.tree().body(cursor);
  if (info.block == nullptr) return std::nullopt;
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

std::size_t P2pNode::pool_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.size();
}

std::uint64_t P2pNode::next_nonce_hint(ledger::NodeId sender) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.next_nonce_hint(
      sender,
      state_.state_at(core_.tree(), core_.head()).account(sender).next_nonce);
}

}  // namespace themis::p2p
