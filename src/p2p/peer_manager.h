// Connection fabric: listener, dialer with exponential backoff, liveness.
//
// PeerManager owns every live Peer and three kinds of threads:
//
//   * one accept thread parked in TcpListener::accept(),
//   * one reader thread per peer (recv -> FrameDecoder -> dispatch),
//   * one maintenance thread that dials configured addresses (exponential
//     backoff with jitter, capped), sends pings, kills peers that miss the
//     pong deadline, and reaps dead connections (joining their readers).
//
// The handshake (first frame in both directions, carrying network magic,
// protocol version and genesis hash) and ping/pong liveness are handled
// entirely inside the manager; the consensus layer above only ever sees
// validated post-handshake frames via its FrameHandler.
//
// Peer lifecycle:
//
//      dial/accept ──> connected ──handshake ok──> ready ──┐
//           │               │                              │ pong deadline
//           │               └──bad handshake──> dead <─────┘ missed, socket
//           └──dial failed: backoff, redial         │        error, EOF
//                                                   v
//                            reaped (reader joined, outbound slot redialed)
//
// Every callback fires on a manager-owned thread (reader or maintenance);
// the callee is responsible for its own locking.  Callbacks must be
// installed before start() and never change afterwards.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "p2p/peer.h"

namespace themis::p2p {

struct PeerManagerConfig {
  /// Port to listen on; 0 picks an ephemeral port (see listen_port()).
  std::uint16_t listen_port = 0;
  bool listen = true;
  /// Addresses to dial and keep dialed, as "host:port".
  std::vector<std::string> dial;

  /// Our handshake.  head_height is refreshed via the provider below at
  /// connection time when one is installed.
  HandshakeMsg handshake;

  /// Ping a peer quiet for this long; kill it if no pong (or any other
  /// frame) arrives within 10 s of the ping.
  int ping_interval_ms = 2000;
  /// Redial backoff: initial * 2^attempts, capped, with +/-25% jitter.
  int backoff_initial_ms = 200;
  int backoff_max_ms = 5000;
  std::uint64_t jitter_seed = 1;
};

class PeerManager {
 public:
  using FrameHandler =
      std::function<void(Peer& peer, std::uint32_t type, ByteSpan payload)>;
  using PeerHandler = std::function<void(Peer& peer)>;
  /// Called at connect time to stamp the current chain height into our
  /// handshake (so the remote learns how far behind it is).
  using HeightProvider = std::function<std::uint64_t()>;

  explicit PeerManager(PeerManagerConfig config);
  ~PeerManager();

  PeerManager(const PeerManager&) = delete;
  PeerManager& operator=(const PeerManager&) = delete;

  void set_frame_handler(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_ready_handler(PeerHandler handler) { on_ready_ = std::move(handler); }
  void set_height_provider(HeightProvider provider) {
    height_provider_ = std::move(provider);
  }

  /// Bind the listener and start the accept + maintenance threads.  False if
  /// the configured port cannot be bound.
  bool start();
  void stop();

  /// Actual bound port (differs from config when it asked for 0).
  std::uint16_t listen_port() const { return listener_.port(); }

  /// Snapshot of the live, handshake-complete peers.
  std::vector<std::shared_ptr<Peer>> ready_peers() const;
  std::size_t ready_peer_count() const;

  /// Monotone transport counters (all atomics; safe to read any time).
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t dials_attempted = 0;
    std::uint64_t dials_failed = 0;
    std::uint64_t reconnects = 0;  ///< redials after a prior successful session
    std::uint64_t handshakes_rejected = 0;
    std::uint64_t protocol_errors = 0;  ///< frame/decode errors that killed a peer
    std::uint64_t disconnects = 0;
    std::uint64_t pings_sent = 0;
    std::uint64_t pongs_received = 0;
    std::uint64_t ping_timeouts = 0;
    std::uint64_t bytes_in = 0;   ///< summed over all peers, dead or alive
    std::uint64_t bytes_out = 0;
  };
  Stats stats() const;

 private:
  struct DialSlot {
    std::string host;
    std::uint16_t port = 0;
    std::uint32_t attempts = 0;        ///< consecutive failures
    std::int64_t next_attempt_ms = 0;  ///< steady-clock deadline
    std::uint64_t session_id = 0;      ///< live peer for this slot (0 = none)
    bool ever_connected = false;
  };

  void accept_loop();
  void maintenance_loop();
  void reader_loop(const std::shared_ptr<Peer>& peer);
  /// Dispatch one frame; false ends the connection (protocol violation).
  bool handle_frame(Peer& peer, const Frame& frame);
  void adopt_socket(TcpSocket socket, bool outbound, int dial_index);
  void dial_due_slots(std::int64_t now_ms);
  void ping_and_reap(std::int64_t now_ms);
  Bytes our_handshake();

  PeerManagerConfig config_;
  FrameHandler on_frame_;
  PeerHandler on_ready_;
  HeightProvider height_provider_;

  TcpListener listener_;
  std::thread accept_thread_;
  std::thread maintenance_thread_;

  mutable std::mutex peers_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Peer>> peers_;
  std::uint64_t next_session_id_ = 1;
  std::vector<DialSlot> dial_slots_;  // maintenance thread only, after start()

  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  Rng jitter_rng_;  // maintenance thread only

  // Counters behind Stats (see stats()).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> dials_attempted_{0};
  std::atomic<std::uint64_t> dials_failed_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> handshakes_rejected_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> pings_sent_{0};
  std::atomic<std::uint64_t> pongs_received_{0};
  std::atomic<std::uint64_t> ping_timeouts_{0};
  std::atomic<std::uint64_t> dead_bytes_in_{0};   ///< from reaped peers
  std::atomic<std::uint64_t> dead_bytes_out_{0};
};

/// Parse "host:port"; throws PreconditionError on malformed input.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s);

}  // namespace themis::p2p
