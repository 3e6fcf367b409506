// A consensus node on a real TCP network.
//
// P2pNode is the daemon adapter over consensus::ChainCore — the same block
// acceptance, fork choice and checkpoint finality the simulated PowNode runs
// — over the socket transport (PeerManager), with real proof-of-work
// (RealMiner on a dedicated thread) and a durable BlockStore under the
// datadir.  Account state, roots, proofs and snapshots are ChainState's
// (state/chain_state.h); signature batching is TxAdmission's
// (p2p/admission.h).  The node keeps store appends, stage stamps, the pool
// reconciler, relay and the live counters.
//
// Relay is announcement-based: blocks go to every ready peer as a kP2pInv
// hash and transactions as a kP2pTxInv id; peers that lack them answer
// kP2pGetData / kP2pGetTxData and receive the kP2pBlock / one kP2pTxBatch.
// The per-peer known-inventory set suppresses duplicate announcements the
// way net/gossip's seen-set drops duplicate pushes.  Catch-up uses the
// locator protocol in p2p/sync.h.
//
// Resident history: with a datadir, each hard-finalized checkpoint releases
// the decoded bodies of the finalized chain from the tree; the store keeps
// them and the tree's body loader reads them back for get_block, get_tx,
// getdata, sync and state replay.  Admission, relay, get_txs and the
// reconciler read only memory.  A memory-only node keeps every body.
//
// Threading: the ChainCore, store, ChainState, reconciler, pool and stage
// tracker live behind one mutex (mu_), taken by reader threads delivering
// frames, by the miner thread, by admission's stateful stage (on the RPC
// connection thread or peer reader thread that admits) and by observer
// queries; no socket send happens while it is held, and store reads happen
// only under it.  The miner is cancelled edge-triggered: every head change
// bumps an atomic chain version and every admission batch that pools a
// transfer bumps an atomic pool version, both re-checked between nonce
// chunks.  A moved chain version always restarts the grind; a moved pool
// version restarts it while the template has room, so the block being
// ground carries the newest transfers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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
#include "obs/trace.h"
#include "p2p/admission.h"
#include "p2p/peer_manager.h"
#include "state/chain_state.h"
#include "state/pool_reconciler.h"

namespace themis::p2p {

/// How long a getdata stays "in flight" before the id is re-requested from
/// the next announcer (the peer died, ignored us, or never had the object).
inline constexpr std::int64_t kRequestRetryMs = 5000;

struct P2pNodeConfig {
  ledger::NodeId id = 0;
  std::size_t n_nodes = 1;

  /// Transport: where to listen (0 = ephemeral) and whom to dial.
  std::uint16_t listen_port = 0;
  bool listen = true;
  std::vector<std::string> peers;

  /// Directory for durable state (blocks.dat); empty = memory only.
  std::filesystem::path datadir;

  /// Write a state snapshot (datadir/state.snap) whenever the certified
  /// checkpoint floor has advanced this many blocks past the previous
  /// snapshot (0 = never; needs checkpoint_interval > 0).  A valid snapshot
  /// found at start() is always restored, re-rooting the tree at the
  /// snapshot block so restart cost is O(snapshot + blocks since) instead of
  /// O(history).
  std::uint64_t snapshot_interval = 0;
  /// After each snapshot, drop block-store records below the snapshot
  /// height.  A pruned node keeps serving sync for everything above its
  /// snapshot; fresh nodes bootstrapping from genesis need an unpruned peer.
  bool prune = false;

  /// Real-PoW difficulty: one hash succeeds with probability 1/difficulty,
  /// so expected hashes per block = difficulty (T_0 = T_max convention).
  double difficulty = 20000.0;
  bool mine = true;

  /// Checkpoint finality (src/finality): every `checkpoint_interval` heights
  /// the node signs and gossips a checkpoint vote; >2/3 of the consortium
  /// weight hard-finalizes the prefix.  0 disables it.
  std::uint64_t checkpoint_interval = 16;
  /// Aggregation backend for formed certificates: "concat" or "half".
  std::string finality_backend = "concat";
  std::uint64_t rng_seed = 1;

  // Transaction pipeline.
  /// Genesis balance credited to every consortium account (0 = no funding;
  /// transfers then bounce with insufficient_funds until funded otherwise).
  std::uint64_t genesis_fund = 1'000'000;
  /// Upper bound on transactions per mined block (512 B each on the wire;
  /// the default keeps a full block comfortably inside one frame).
  std::size_t max_block_txs = 256;

  // Transport tuning, forwarded to PeerManagerConfig.
  int ping_interval_ms = 2000;
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

  /// Attach an event tracer BEFORE start() (themis-noded --trace); events
  /// are buffered, thread-safe, keyed by wall-clock nanoseconds since start().
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Invoked (on an internal thread) after every head change.
  void set_head_listener(std::function<void(const P2pNode&)> fn) {
    head_listener_ = std::move(fn);
  }

  // --- live telemetry --------------------------------------------------------
  // The node owns the live registry; the RPC gateway registers its own
  // families into the same registry so one scrape covers the whole node.
  obs::live::Registry& live_registry() { return live_registry_; }
  const obs::live::Registry& live_registry() const { return live_registry_; }

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

  struct HeadInfo {
    ledger::BlockHash hash{};
    std::uint64_t height = 0;
    Hash32 state_root{};
    UInt128 total_supply;
  };
  /// Head, height, state root and supply from one lock hold (get_head/status).
  HeadInfo head_info() const;

  std::uint16_t listen_port() const { return peers_->listen_port(); }
  std::size_t ready_peer_count() const { return peers_->ready_peer_count(); }
  PeerManager::Stats transport_stats() const { return peers_->stats(); }
  const P2pNodeConfig& config() const { return config_; }

  /// The store_replayed and snapshot fields are ChainState's.
  struct ChainStats : state::ChainState::Stats {
    std::uint64_t blocks_produced = 0;   ///< mined by this node
    /// Miner templates re-taken mid-grind because the pool grew.
    std::uint64_t template_refreshes = 0;
    std::uint64_t blocks_rejected = 0;   ///< failed §III validation
    std::uint64_t reorgs = 0;
    std::uint64_t invs_received = 0;
    std::uint64_t invs_redundant = 0;    ///< announced a block we already had
    std::uint64_t blocks_received = 0;   ///< full blocks over the wire
    std::uint64_t sync_rounds = 0;       ///< getblocks requests we issued

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

    // Resident history.
    std::uint64_t bodies_resident = 0;  ///< tree entries with a decoded body
    std::uint64_t txs_indexed = 0;      ///< confirmed-tx index entries
  };
  /// Counts with a live-registry twin are read from that counter.
  ChainStats chain_stats() const;

  // --- transaction pipeline --------------------------------------------------

  /// Admit a transaction (RPC submit_tx); on acceptance its id is announced
  /// to every ready peer.
  TxAdmit submit_transaction(const ledger::SignedTransaction& stx);
  /// Admit many in one pass through TxAdmission (RPC submit_txs); one verdict
  /// per transaction, in order.
  std::vector<TxAdmit> submit_transactions(
      const std::vector<ledger::SignedTransaction>& stxs);

  struct TxStatusInfo {
    enum class State { unknown, pending, confirmed };
    State state = State::unknown;
    std::optional<ledger::Transaction> tx;
    std::optional<ledger::BlockHash> block;  ///< confirming main-chain block
    std::uint64_t block_height = 0;
    std::uint64_t confirmations = 0;  ///< head_height - block_height + 1
    /// Lifecycle stamps while the stage tracker remembers the id.
    std::optional<obs::live::StageTracker::Stamps> stages;
  };
  TxStatusInfo tx_status(const ledger::TxId& id) const;
  /// tx_status(id).state for every id, from the confirmed-tx index and the
  /// pool in one lock hold, with no body read (RPC get_txs).
  std::vector<TxStatusInfo::State> tx_states(
      const std::vector<ledger::TxId>& ids) const;

  using AccountInfo = state::Account;
  /// Balance and next expected nonce at the current head.
  AccountInfo account_info(ledger::NodeId id) const;

  /// Merkle root of the account state at the current head (authstate paged
  /// commitment).  Maintained incrementally from validation deltas; two
  /// nodes at the same head report bit-identical roots.
  Hash32 head_state_root() const;
  /// Sum of all balances at the head (decimal-exact over RPC).
  UInt128 total_supply() const;

  struct BalanceProof : state::ChainState::Proof {
    ledger::BlockHash head{};
    std::uint64_t height = 0;
  };
  /// Account state plus a Merkle inclusion proof against head_state_root().
  BalanceProof balance_proof(ledger::NodeId id) const;

  struct BlockInfo {
    /// With its body, read back from the store if it was released.
    ledger::BlockPtr block;
    bool on_main_chain = false;
    std::uint64_t confirmations = 0;  ///< 0 when off the main chain
  };
  /// nullopt for an unknown block, or a released one whose store record was
  /// pruned.
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

  /// Pending transactions in the pool.
  std::size_t pool_depth() const;
  /// Smallest usable nonce for `sender`: head-state next_nonce, skipping
  /// nonces already pending in the pool (RPC auto-nonce).  One lock hold, so
  /// a block confirming the sender's pending transactions cannot slip
  /// between the two reads.
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
  void handle_tx_batch(Peer& peer, ByteSpan payload);
  void handle_ckpt_vote(Peer& peer, ByteSpan payload);

  /// TxAdmission's stateful stage, under mu_: the submitted and verified
  /// stamps the requests carry, then confirmed check, nonce window, pool
  /// insert and pooled stamp for every request still `accepted`; bumps the
  /// pool version when at least one transfer was pooled.
  void admit_stateful(std::span<TxAdmission::Request> batch);
  /// TxAdmission's publish stage, outside mu_: traces, then one batched
  /// inventory announcement of the accepted ids.
  void announce_admitted(std::span<TxAdmission::Request> batch);
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
  /// The live-only half of a core call, under mu_: store appends, stage
  /// stamps, counters, state and reconciler floors, pool reconciliation,
  /// snapshots.
  void absorb_locked(const consensus::ChainCore::Effects& fx);
  /// After a core call, outside mu_: wake the miner and fire the head
  /// listener when the head moved, then broadcast our own checkpoint votes.
  void publish(const consensus::ChainCore::Effects& fx,
               std::uint64_t head_height);
  /// Send votes to every ready peer except `exclude_session`.
  void broadcast_votes(const std::vector<finality::CheckpointVote>& votes,
                       std::uint64_t exclude_session);
  void mine_loop();
  void trace(std::string_view event, std::initializer_list<obs::Field> fields);
  std::int64_t wall_nanos() const;

  P2pNodeConfig config_;
  /// The consortium keys (immutable: admission reads it without mu_).
  std::shared_ptr<const consensus::KeyRegistry> registry_;

  std::unique_ptr<PeerManager> peers_;

  obs::live::Registry live_registry_;

  // --- consensus state, all behind mu_ ---------------------------------------
  mutable std::mutex mu_;
  consensus::ChainCore core_;
  /// Copy of the core's signing key for the miner thread (immutable).
  const crypto::Keypair keypair_;
  std::unique_ptr<ledger::BlockStore> store_;
  /// In-flight getdata requests for blocks and transactions (dedup across
  /// peers), steady-clock ms.  One table: both ids are SHA-256d digests of
  /// distinct encodings, so they never collide.  A transaction leaves it
  /// when admission settles it (admit_stateful), not when it arrives.
  std::unordered_map<Hash32, std::int64_t, Hash32Hasher> requested_;
  std::int64_t requested_swept_ms_ = 0;  ///< last expiry sweep of requested_
  /// Account state, state root and snapshots (mutable so const observers can
  /// materialize states and roots — still guarded by mu_).
  mutable state::ChainState state_;
  /// Confirmed-tx index + pool/chain reconciliation across head changes.
  state::PoolReconciler reconciler_;
  /// Only the inventory, relay, sync and refused-reorg counts, which live
  /// nowhere else; chain_stats() reads every other field from its one store.
  ChainStats stats_;
  /// Pending transactions: written by TxAdmission's stateful stage and the
  /// reconciler, read by the miner, relay and observers.
  ledger::TxPool pool_;
  /// Lifecycle stamps: submitted, verified and pooled from the stateful
  /// stage, included and confirmed from absorb_locked; read by tx_status.
  obs::live::StageTracker stage_tracker_{live_registry_};

  TxAdmission admission_;

  // --- miner -----------------------------------------------------------------
  std::thread miner_thread_;
  std::mutex miner_mu_;
  std::condition_variable miner_cv_;
  std::atomic<bool> mining_enabled_{false};
  std::atomic<std::uint64_t> chain_version_{0};
  /// Bumped under mu_ by every admission batch that pools a transfer; the
  /// miner reads it without mu_ between chunks.
  std::atomic<std::uint64_t> pool_version_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::function<void(const P2pNode&)> head_listener_;

  obs::EventTracer* tracer_ = nullptr;
  std::mutex trace_mu_;
  std::chrono::steady_clock::time_point start_time_;

  /// Cached metric pointers, registered once in the constructor.
  struct LiveCounters {
    obs::live::Counter* blocks_mined = nullptr;
    obs::live::Counter* template_refreshes = nullptr;
    obs::live::Counter* blocks_received = nullptr;
    obs::live::Counter* blocks_rejected = nullptr;
    obs::live::Counter* head_changes = nullptr;
    obs::live::Counter* reorgs = nullptr;
    obs::live::Counter* ckpt_votes_sent = nullptr;
    obs::live::Counter* ckpt_votes_received = nullptr;
    obs::live::Counter* ckpt_votes_accepted = nullptr;
    obs::live::Counter* ckpt_votes_rejected = nullptr;
    obs::live::Counter* ckpt_certs = nullptr;
    obs::live::Histogram* block_submit = nullptr;
  } live_;
};

}  // namespace themis::p2p
