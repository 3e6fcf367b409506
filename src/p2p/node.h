// A consensus node on a real TCP network.
//
// P2pNode is the daemon adapter over consensus::ChainCore — the same block
// acceptance, fork choice and checkpoint finality the simulated PowNode runs
// — but over the socket transport (PeerManager) instead of the discrete-event
// GossipNetwork, with real proof-of-work (RealMiner grinding double-SHA-256
// nonces on a dedicated thread) and a durable BlockStore under the datadir so
// a restarted node replays its chain and re-syncs to the network head.  The
// node keeps what is live-only: store appends, stage stamps, the pool
// reconciler, snapshots, state floors, relay and the live counters.
//
// Block dissemination is announcement-based: a new block is advertised to
// every ready peer as a kP2pInv hash; peers that lack it answer kP2pGetData
// and receive the kP2pBlock.  The per-peer known-inventory set suppresses
// duplicate announcements the way net/gossip's seen-set drops duplicate
// pushes — the redundant-announce ratio is the same observable, measured on
// a real wire.  Catch-up uses the locator protocol in p2p/sync.h.
//
// Threading: the consensus state (the ChainCore, store, state and reconciler)
// lives behind one mutex, taken by reader threads delivering frames, by the
// miner thread submitting solved blocks, and by observer queries; every
// ChainCore call happens under it.  The miner is cancelled edge-triggered:
// every head change bumps an atomic chain version, and the grinder re-checks
// it between nonce chunks (the real-clock analogue of the simulator's
// memoryless mining restart).
//
// Transaction pipeline (the client-facing half, §III "pick transactions from
// the transaction pool"): submit_transaction() — called by the RPC gateway
// and by the kP2pTx handler — runs the admission checks (canonical form,
// consortium signature, nonce against the head state), inserts into the
// thread-safe TxPool, and announces the id to every ready peer as a
// kP2pTxInv; peers that lack it answer kP2pGetTxData and receive the
// kP2pTx — the same inventory-based duplicate suppression blocks use, over
// the same per-peer known-set.  The miner fills candidate blocks from
// TxPool::select() filtered by replay against a scratch copy of the parent
// state; block validation replays bodies the same way (rejecting
// double-spends); and every head change runs the PoolReconciler so confirmed
// transactions leave the pool and reorg-abandoned ones return to it.
// Lock order: the consensus mutex (mu_) before the pool's internal mutex,
// or the pool's alone — never the reverse.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "consensus/chain_core.h"
#include "ledger/block_store.h"
#include "ledger/txpool.h"
#include "obs/live/registry.h"
#include "obs/live/stage_tracker.h"
#include "obs/observability.h"
#include "p2p/peer_manager.h"
#include "state/authstate/merkle_state.h"
#include "state/ledger_state.h"
#include "state/pool_reconciler.h"

namespace themis::p2p {

/// How long a getdata stays "in flight" before the id is re-requested from
/// the next announcer (the peer died, ignored us, or never had the object).
inline constexpr std::int64_t kRequestRetryMs = 5000;

/// Outcome of transaction admission (RPC submit or p2p relay).
enum class TxAdmit {
  accepted,         ///< entered the pool and was announced to peers
  duplicate,        ///< already pending in the pool
  known_confirmed,  ///< already confirmed on the main chain
  invalid,          ///< malformed canonical encoding
  bad_signature,    ///< Schnorr admission signature failed to verify
  unknown_sender,   ///< sender id outside the consortium registry
  stale_nonce,      ///< nonce already consumed at the current head
  nonce_gap,        ///< nonce too far beyond the sender's next expected
};

std::string_view to_string(TxAdmit admit);

struct P2pNodeConfig {
  ledger::NodeId id = 0;
  std::size_t n_nodes = 1;

  /// Transport: where to listen (0 = ephemeral) and whom to dial.
  std::uint16_t listen_port = 0;
  bool listen = true;
  std::vector<std::string> peers;

  /// Directory for durable state (blocks.dat); empty = memory only.
  std::filesystem::path datadir;

  /// Write a state snapshot (datadir/state.snap) whenever the finalized
  /// anchor has advanced this many blocks past the previous snapshot
  /// (0 = never).  A valid snapshot found at start() is always restored,
  /// re-rooting the tree at the snapshot block so restart cost is
  /// O(snapshot + blocks since) instead of O(history).
  std::uint64_t snapshot_interval = 0;
  /// After each snapshot, drop block-store records below the snapshot
  /// height.  A pruned node keeps serving sync for everything above its
  /// snapshot; fresh nodes bootstrapping from genesis need an unpruned peer.
  bool prune = false;

  /// Real-PoW difficulty: one hash succeeds with probability 1/difficulty,
  /// so expected hashes per block = difficulty (T_0 = T_max convention).
  double difficulty = 20000.0;
  bool mine = true;
  /// Nonces ground between chain-version checks; smaller = faster mining
  /// cancellation, larger = less overhead.
  std::uint64_t mine_chunk = 2048;

  std::uint64_t finality_depth = 16;

  /// Checkpoint finality (src/finality): every `checkpoint_interval` heights
  /// the node signs and gossips a checkpoint vote; >2/3 of the consortium
  /// weight hard-finalizes the prefix.  0 disables it.
  std::uint64_t checkpoint_interval = 16;
  /// Aggregation backend for formed certificates: "concat" or "half".
  std::string finality_backend = "concat";
  std::string agent = "themis-noded/1.0";
  std::uint64_t rng_seed = 1;

  // Transaction pipeline.
  /// Genesis balance credited to every consortium account (0 = no funding;
  /// transfers then bounce with insufficient_funds until funded otherwise).
  std::uint64_t genesis_fund = 1'000'000;
  /// Upper bound on transactions per mined block (512 B each on the wire;
  /// the default keeps a full block comfortably inside one frame).
  std::size_t max_block_txs = 256;
  /// Transaction-pool capacity (oldest evicted beyond this).
  std::size_t pool_capacity = 1 << 20;
  /// Admission window for future nonces: a transaction whose nonce is this
  /// far beyond the sender's next expected nonce is rejected as junk.
  std::uint64_t max_nonce_gap = 1024;
  /// Most transactions one admission batch settles: under submission bursts
  /// the combining leader drains up to this many queued transactions, batch-
  /// verifies their signatures, and admits them under a single consensus-lock
  /// acquisition (see accept_transaction).
  std::size_t admit_batch_max = 64;

  // Transport tuning, forwarded to PeerManagerConfig.
  int dial_timeout_ms = 2000;
  int ping_interval_ms = 2000;
  int pong_timeout_ms = 10000;
  int backoff_initial_ms = 200;
  int backoff_max_ms = 5000;
};

class P2pNode {
 public:
  /// `rule` and `policy` as in ChainCore; defaults: GHOST + fixed difficulty.
  /// (The daemon installs GEOST from src/core; the p2p library itself stays
  /// independent of the core layer.)
  P2pNode(P2pNodeConfig config,
          std::shared_ptr<consensus::ForkChoiceRule> rule = nullptr,
          std::shared_ptr<consensus::DifficultyPolicy> policy = nullptr);
  ~P2pNode();

  P2pNode(const P2pNode&) = delete;
  P2pNode& operator=(const P2pNode&) = delete;

  /// Open/replay the block store, bind the listener, start dialing and (when
  /// configured) mining.  False if the listen port cannot be bound.
  bool start();
  void stop();

  /// Toggle the miner at runtime (an observer node serves sync + relays).
  void set_mining(bool enabled);
  bool mining() const { return mining_enabled_.load(); }

  /// Attach an observability bundle BEFORE start(); trace events are
  /// buffered (thread-safe, wall-clock nanoseconds since start()) and
  /// fill_observability() snapshots the counters on demand.
  void set_observability(obs::Observability* obs) { obs_ = obs; }
  /// Write p2p/chain counters and per-peer link traffic into the bundle.
  void fill_observability();

  /// Invoked (on an internal thread) after every head change.
  void set_head_listener(std::function<void(const P2pNode&)> fn) {
    head_listener_ = std::move(fn);
  }

  // --- live telemetry --------------------------------------------------------
  // Always-on (compiled to no-ops under THEMIS_MIN_TELEMETRY): the node owns
  // the live registry and tx-lifecycle tracker; the RPC gateway registers its
  // own families into the same registry so one scrape covers the whole node.
  obs::live::Registry& live_registry() { return live_registry_; }
  const obs::live::Registry& live_registry() const { return live_registry_; }
  obs::live::StageTracker& stage_tracker() { return stage_tracker_; }
  const obs::live::StageTracker& stage_tracker() const {
    return stage_tracker_;
  }

  /// Seconds since start() (0 before start).
  double uptime_seconds() const;
  /// Readiness probe: started, and — when peers are configured — connected
  /// to at least one (a standalone node is trivially ready).  /health maps
  /// this to 200/503.
  bool ready() const;

  // --- observers (all take the consensus lock) -------------------------------
  ledger::BlockHash head() const;
  std::uint64_t head_height() const;
  std::uint64_t tree_blocks() const;
  /// Blocks in the durable store (0 when running memory-only).
  std::uint64_t store_blocks() const;
  bool contains(const ledger::BlockHash& id) const;

  std::uint16_t listen_port() const { return peers_->listen_port(); }
  std::size_t ready_peer_count() const { return peers_->ready_peer_count(); }
  PeerManager::Stats transport_stats() const { return peers_->stats(); }
  const P2pNodeConfig& config() const { return config_; }

  struct ChainStats {
    std::uint64_t blocks_produced = 0;   ///< mined by this node
    std::uint64_t blocks_rejected = 0;   ///< failed §III validation
    std::uint64_t reorgs = 0;
    std::uint64_t invs_received = 0;
    std::uint64_t invs_redundant = 0;    ///< announced a block we already had
    std::uint64_t blocks_received = 0;   ///< full blocks over the wire
    std::uint64_t blocks_duplicate = 0;  ///< received but already in the tree
    std::uint64_t sync_requests_served = 0;
    std::uint64_t sync_blocks_served = 0;
    std::uint64_t sync_rounds = 0;       ///< getblocks requests we issued
    std::uint64_t store_replayed = 0;    ///< blocks recovered at start()

    // Authenticated state / snapshots.
    std::uint64_t snapshots_written = 0; ///< state snapshots persisted
    std::uint64_t snapshot_height = 0;   ///< height of the latest snapshot
    std::uint64_t blocks_pruned = 0;     ///< store records dropped by pruning
    bool restored_from_snapshot = false; ///< start() loaded a snapshot

    // Checkpoint finality.
    std::uint64_t finalized_height = 0;     ///< highest certified checkpoint
    std::uint64_t ckpt_votes_sent = 0;      ///< our own votes broadcast
    std::uint64_t ckpt_votes_received = 0;  ///< vote frames from peers
    std::uint64_t ckpt_votes_accepted = 0;  ///< counted toward a checkpoint
    std::uint64_t ckpt_votes_rejected = 0;  ///< equivocating/unknown/bad-sig
    std::uint64_t ckpt_certs_formed = 0;    ///< quorums completed locally
    std::uint64_t reorgs_refused_finality = 0;  ///< divergence below finality

    // Transaction pipeline.
    std::uint64_t txs_submitted = 0;     ///< admission attempts (RPC + wire)
    std::uint64_t txs_accepted = 0;      ///< entered the pool
    std::uint64_t txs_rejected = 0;      ///< failed an admission check
    std::uint64_t txs_duplicate = 0;     ///< already pending or confirmed
    std::uint64_t txs_relayed = 0;       ///< full txs served to peers
    std::uint64_t tx_invs_received = 0;  ///< tx inventory entries from peers
    std::uint64_t tx_invs_redundant = 0; ///< announced a tx we already knew
    std::uint64_t txs_received = 0;      ///< full txs over the wire
    std::uint64_t txs_confirmed = 0;     ///< confirmed on the main chain
    std::uint64_t txs_returned = 0;      ///< reorg-abandoned, back in the pool
    std::uint64_t txs_purged = 0;        ///< dropped as permanently stale
    /// Block and tx getdata requests awaiting their object.
    std::uint64_t requests_in_flight = 0;
  };
  ChainStats chain_stats() const;

  /// duplicates announced to us / inv entries received (the wire analogue of
  /// GossipNetwork::redundant_push_ratio).
  double redundant_announce_ratio() const;

  // --- transaction pipeline --------------------------------------------------

  /// Admit a transaction (RPC gateway entry point): stateless checks, then
  /// signature against the consortium registry, then nonce against the head
  /// state; on acceptance the id is announced to every ready peer.
  TxAdmit submit_transaction(const ledger::SignedTransaction& stx);

  /// Admit many transactions in one combining-queue pass (batched RPC entry
  /// point): the whole vector shares one Schnorr verification batch and one
  /// stateful-admission lock hold.  Returns one verdict per transaction, in
  /// order.
  std::vector<TxAdmit> submit_transactions(
      const std::vector<ledger::SignedTransaction>& stxs);

  struct TxStatusInfo {
    enum class State { unknown, pending, confirmed };
    State state = State::unknown;
    std::optional<ledger::Transaction> tx;
    std::optional<ledger::BlockHash> block;  ///< confirming main-chain block
    std::uint64_t block_height = 0;
    std::uint64_t confirmations = 0;  ///< head_height - block_height + 1
  };
  TxStatusInfo tx_status(const ledger::TxId& id) const;

  struct AccountInfo {
    UInt128 balance;
    std::uint64_t next_nonce = 1;
  };
  /// Balance and next expected nonce at the current head.
  AccountInfo account_info(ledger::NodeId id) const;

  /// Merkle root of the account state at the current head (authstate paged
  /// commitment).  Maintained incrementally from validation deltas; two
  /// nodes at the same head report bit-identical roots.
  Hash32 head_state_root() const;
  /// Sum of all balances at the head (decimal-exact over RPC).
  UInt128 total_supply() const;

  struct BalanceProof {
    bool available = false;  ///< false when the id lies past the committed range
    state::Account account;  ///< claimed state the proof pins down
    state::authstate::AccountProof proof;
    Hash32 state_root{};
    ledger::BlockHash head{};
    std::uint64_t height = 0;
  };
  /// Account state plus a Merkle inclusion proof against head_state_root().
  BalanceProof balance_proof(ledger::NodeId id) const;

  struct BlockInfo {
    ledger::BlockPtr block;
    bool on_main_chain = false;
    std::uint64_t confirmations = 0;  ///< 0 when off the main chain
  };
  std::optional<BlockInfo> block_info(const ledger::BlockHash& hash) const;
  /// Main-chain block at `height` (walks the head chain).
  std::optional<BlockInfo> block_info_at(std::uint64_t height) const;

  // --- checkpoint finality ---------------------------------------------------

  struct FinalityInfo {
    bool enabled = false;
    std::uint64_t interval = 0;
    std::uint64_t finalized_height = 0;
    std::optional<ledger::BlockHash> finalized_block;
    std::uint64_t head_height = 0;
    std::uint64_t lag = 0;  ///< head_height - finalized_height
    std::size_t latest_votes = 0;  ///< voters on the latest certificate
  };
  FinalityInfo finality_info() const;

  /// The aggregate certificate formed at checkpoint `height`, if any (RPC
  /// `get_checkpoint`; themis-cli verifies it offline against the
  /// deterministic consortium keys).
  std::optional<finality::CheckpointCertificate> checkpoint_certificate(
      std::uint64_t height) const;

  std::size_t pool_depth() const { return pool_.size(); }
  /// Smallest usable nonce for `sender`: head-state next_nonce, skipping
  /// nonces already pending in the pool (RPC auto-nonce).
  std::uint64_t next_nonce_hint(ledger::NodeId sender) const;

 private:
  void on_peer_ready(Peer& peer);
  void on_peer_frame(Peer& peer, std::uint32_t type, ByteSpan payload);
  /// kP2pInv / kP2pTxInv: request every announced block (`txs` false) or
  /// transaction (`txs` true) we neither hold nor already have in flight.
  void handle_inv(Peer& peer, ByteSpan payload, bool txs);
  void handle_getdata(Peer& peer, ByteSpan payload);
  /// One kP2pBlock payload (also each block of a kP2pBlocks batch); true if
  /// the tree grew.
  bool handle_block(Peer& peer, ByteSpan payload);
  void handle_getblocks(Peer& peer, ByteSpan payload);
  void handle_blocks(Peer& peer, ByteSpan payload);
  void handle_get_txdata(Peer& peer, ByteSpan payload);
  void handle_tx(Peer& peer, ByteSpan payload);
  void handle_tx_batch(Peer& peer, ByteSpan payload);
  void handle_ckpt_vote(Peer& peer, ByteSpan payload);

  /// Shared admission path for RPC submissions and wire-relayed transactions.
  /// `source_session` = 0 for RPC (announce to everyone).
  ///
  /// Combining-leader batching: callers enqueue their transaction; the first
  /// caller in becomes the leader and drains the queue in batches of up to
  /// `admit_batch_max`, so concurrent submitters share one batched signature
  /// verification and one consensus-lock acquisition instead of paying both
  /// per transaction.
  TxAdmit accept_transaction(const ledger::SignedTransaction& stx,
                             std::uint64_t source_session);
  /// One admission request parked in the combining queue.
  struct AdmitRequest {
    const ledger::SignedTransaction* stx = nullptr;
    std::uint64_t source_session = 0;
    TxAdmit result = TxAdmit::accepted;
    std::optional<crypto::PublicKey> pub;  ///< the sender's key, if a member
    bool done = false;
  };
  /// Park `requests` in the combining queue and return once every one has
  /// been settled — becoming the leader if none is active.  This is how a
  /// whole relayed kP2pTxBatch enters admission as one verification batch.
  void enqueue_and_settle(const std::vector<AdmitRequest*>& requests);
  /// Settle one drained batch: stateless checks, batched Schnorr
  /// verification, then stateful admission under a single mu_ hold.
  void process_admit_batch(const std::vector<AdmitRequest*>& batch);
  /// Announce (id, source session) pairs with one `type` inventory frame per
  /// peer, skipping each id's source and ids the peer is known to have.
  void announce(std::uint32_t type,
                const std::vector<std::pair<Hash32, std::uint64_t>>& items);

  /// Hand a block to the core (validation, orphans, head update,
  /// finality), persist what it inserted, and announce news to peers.
  /// `source_session` = 0 for locally mined blocks.  Returns true if the tree
  /// grew.
  bool submit_block(ledger::BlockPtr block, std::uint64_t source_session);
  /// Ask `peer` for the range above our head (locator round).
  void request_sync(Peer& peer);
  /// The core's body check: replay the block's transactions against the
  /// parent state (rejects double-spends) and record the state delta.
  bool replay_body_locked(const ledger::Block& block);
  /// The live-only half of a core call, under mu_: store appends, stage
  /// stamps, counters, state and reconciler floors, pool reconciliation,
  /// snapshots.
  void absorb_locked(const consensus::ChainCore::Effects& fx);
  /// After a core call, outside mu_: wake the miner and fire the head
  /// listener when the head moved, then broadcast our own checkpoint votes.
  void publish(const consensus::ChainCore::Effects& fx,
               std::uint64_t head_height);
  /// Bring root_cache_ up to the current head: incremental page re-hash when
  /// the head advanced over recorded deltas, full rebuild otherwise.
  const Hash32& ensure_root_locked() const;
  /// Snapshot (and optionally prune) once the anchor has advanced
  /// snapshot_interval blocks past the last snapshot.
  void maybe_snapshot_locked();
  /// Send votes to every ready peer except `exclude_session`.
  void broadcast_votes(const std::vector<finality::CheckpointVote>& votes,
                       std::uint64_t exclude_session);
  void mine_loop();
  void trace(std::string_view event, std::initializer_list<obs::Field> fields);
  std::int64_t wall_nanos() const;
  /// Register every node-level live metric (called once from the ctor; the
  /// hot paths bump the cached pointers in live_, never look up by name).
  void register_live_metrics();

  P2pNodeConfig config_;
  /// The consortium keys (immutable: admission reads it without mu_).
  std::shared_ptr<const consensus::KeyRegistry> registry_;

  std::unique_ptr<PeerManager> peers_;

  // --- consensus state, all behind mu_ ---------------------------------------
  mutable std::mutex mu_;
  consensus::ChainCore core_;
  /// Copy of the core's signing key for the miner thread (immutable).
  const crypto::Keypair keypair_;
  std::unique_ptr<ledger::BlockStore> store_;
  /// In-flight getdata requests for blocks and transactions (dedup across
  /// peers), steady-clock ms.  One table: both ids are SHA-256d digests of
  /// distinct encodings, so they never collide.
  std::unordered_map<Hash32, std::int64_t, Hash32Hasher> requested_;
  std::int64_t requested_swept_ms_ = 0;  ///< last expiry sweep of requested_
  /// Ledger states along the tree (per-block snapshot cache; mutable so
  /// const observers can materialize snapshots — still guarded by mu_).
  mutable state::StateManager state_;
  /// Confirmed-tx index + pool/chain reconciliation across head changes.
  state::PoolReconciler reconciler_;
  /// Lazily maintained authstate commitment for the current head (mutable:
  /// const observers materialize it on demand — still guarded by mu_).
  mutable state::authstate::RootCache root_cache_;
  mutable ledger::BlockHash root_head_{};
  mutable bool root_valid_ = false;
  /// Anchor height of the latest snapshot written or restored.
  std::uint64_t last_snapshot_height_ = 0;
  ChainStats stats_;

  /// Pending transactions.  Internally synchronized; see the lock-order rule
  /// in the header comment.
  ledger::TxPool pool_;

  // --- combining-leader admission queue --------------------------------------
  // admit_mu_ guards only the queue and the leader flag; it is never held
  // while mu_ (or any crypto work) runs, so the order admit_mu_ -> mu_ can
  // never invert.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::deque<AdmitRequest*> admit_queue_;
  bool admit_leader_active_ = false;

  // --- miner -----------------------------------------------------------------
  std::thread miner_thread_;
  std::mutex miner_mu_;
  std::condition_variable miner_cv_;
  std::atomic<bool> mining_enabled_{false};
  std::atomic<std::uint64_t> chain_version_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::function<void(const P2pNode&)> head_listener_;

  obs::Observability* obs_ = nullptr;
  std::mutex trace_mu_;
  std::chrono::steady_clock::time_point start_time_;

  // --- live telemetry --------------------------------------------------------
  obs::live::Registry live_registry_;
  obs::live::StageTracker stage_tracker_{live_registry_};
  /// Cached metric pointers, registered once in register_live_metrics().
  struct LiveCounters {
    obs::live::Counter* txs_submitted = nullptr;
    obs::live::Counter* txs_accepted = nullptr;
    obs::live::Counter* txs_rejected = nullptr;
    obs::live::Counter* txs_duplicate = nullptr;
    obs::live::Counter* blocks_mined = nullptr;
    obs::live::Counter* blocks_received = nullptr;
    obs::live::Counter* blocks_rejected = nullptr;
    obs::live::Counter* head_changes = nullptr;
    obs::live::Counter* reorgs = nullptr;
    obs::live::Counter* ckpt_votes_sent = nullptr;
    obs::live::Counter* ckpt_votes_received = nullptr;
    obs::live::Counter* ckpt_votes_accepted = nullptr;
    obs::live::Counter* ckpt_votes_rejected = nullptr;
    obs::live::Counter* ckpt_certs = nullptr;
    obs::live::Histogram* admit_batch = nullptr;
    obs::live::Histogram* block_submit = nullptr;
  } live_;
};

}  // namespace themis::p2p
