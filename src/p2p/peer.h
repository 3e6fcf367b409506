// One live TCP connection to a remote node.
//
// A Peer owns the socket, an incremental FrameDecoder fed by its reader
// thread, a write mutex serializing frame sends from any thread, per-peer
// byte/frame counters, and the known-inventory set that implements
// announcement duplicate suppression (the socket-transport analogue of
// net/gossip's per-node seen-set accounting).
//
// Thread contract: exactly one reader thread (owned by PeerManager) calls
// recv/decode; send_frame() and the inventory helpers are safe from any
// thread; mark_dead()/socket shutdown may come from the maintenance thread
// on ping timeout or from stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "ledger/types.h"
#include "p2p/frame.h"
#include "p2p/messages.h"
#include "p2p/socket.h"

namespace themis::p2p {

class Peer {
 public:
  Peer(std::uint64_t session_id, TcpSocket socket, bool outbound,
       int dial_index)
      : session_id_(session_id),
        outbound_(outbound),
        dial_index_(dial_index),
        socket_(std::move(socket)) {}

  std::uint64_t session_id() const { return session_id_; }
  bool outbound() const { return outbound_; }
  /// Index into the configured dial list (-1 for inbound connections).
  int dial_index() const { return dial_index_; }

  /// Encode and write one frame.  Serialized by an internal mutex; false on
  /// socket failure (the peer should then be dropped).
  bool send_frame(std::uint32_t type, ByteSpan payload);

  // --- handshake state -------------------------------------------------------
  /// Record the validated remote handshake and flip ready().
  void set_ready(const HandshakeMsg& remote);
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  /// Valid only after ready() is true (written before the release store).
  const HandshakeMsg& remote() const { return remote_; }

  // --- liveness --------------------------------------------------------------
  void mark_dead() {
    dead_.store(true, std::memory_order_release);
    socket_.shutdown();
  }
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  std::atomic<std::int64_t> last_recv_ms{0};   ///< steady-clock ms of last byte
  std::atomic<std::uint64_t> ping_nonce{0};    ///< outstanding ping (0 = none)
  std::atomic<std::int64_t> ping_sent_ms{0};

  /// Consecutive sync batches from this peer that added nothing to our tree
  /// (see P2pNode::handle_blocks).  Bounds locator-retry loops against a
  /// peer that keeps serving blocks we already have.
  std::atomic<std::uint32_t> sync_stalls{0};

  // --- per-peer traffic counters --------------------------------------------
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};

  // --- inventory accounting --------------------------------------------------
  /// Record that the remote knows `id` (it announced it, or we sent it).
  /// Returns true if this was news — i.e. an announcement is worth sending.
  bool mark_known(const ledger::BlockHash& id);
  bool knows(const ledger::BlockHash& id) const;

  TcpSocket& socket() { return socket_; }
  FrameDecoder& decoder() { return decoder_; }

  /// Reader thread handle; managed by PeerManager.
  std::thread reader;

 private:
  const std::uint64_t session_id_;
  const bool outbound_;
  const int dial_index_;

  TcpSocket socket_;
  FrameDecoder decoder_;  // touched only by the reader thread

  std::mutex write_mu_;
  std::atomic<bool> ready_{false};
  std::atomic<bool> dead_{false};
  HandshakeMsg remote_;

  /// Hashes the remote is known to have.  Bounded: announcement suppression
  /// is an optimization, so on overflow the set is simply reset (a stale
  /// entry can only cost one redundant inv, never correctness).
  static constexpr std::size_t kMaxKnown = 1 << 16;
  mutable std::mutex known_mu_;
  std::unordered_set<ledger::BlockHash, Hash32Hasher> known_;
};

}  // namespace themis::p2p
