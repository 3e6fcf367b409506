#include "p2p/peer_manager.h"

#include <chrono>

#include "common/check.h"
#include "common/serialize.h"
#include "consensus/wire.h"

namespace themis::p2p {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::pair<std::string, std::uint16_t> parse_host_port(const std::string& s) {
  const auto colon = s.rfind(':');
  expects(colon != std::string::npos && colon > 0 && colon + 1 < s.size(),
          "peer address must be host:port");
  const std::string host = s.substr(0, colon);
  const unsigned long port = std::stoul(s.substr(colon + 1));
  expects(port > 0 && port <= 65535, "peer port out of range");
  return {host, static_cast<std::uint16_t>(port)};
}

PeerManager::PeerManager(PeerManagerConfig config)
    : config_(std::move(config)), jitter_rng_(config_.jitter_seed) {
  for (const std::string& address : config_.dial) {
    const auto [host, port] = parse_host_port(address);
    DialSlot slot;
    slot.host = host;
    slot.port = port;
    dial_slots_.push_back(std::move(slot));
  }
}

PeerManager::~PeerManager() { stop(); }

bool PeerManager::start() {
  expects(!started_, "peer manager already started");
  if (config_.listen) {
    if (!listener_.listen(config_.listen_port)) return false;
    accept_thread_ = std::thread([this] { accept_loop(); });
  }
  maintenance_thread_ = std::thread([this] { maintenance_loop(); });
  started_ = true;
  return true;
}

void PeerManager::stop() {
  if (!started_) return;
  stopping_.store(true);
  cv_.notify_all();
  listener_.interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // Unblock every reader, then join.  Readers may still be dispatching their
  // final frames into the handlers while we wait — handlers must not assume
  // stop() implies quiescence until it returns.
  std::vector<std::shared_ptr<Peer>> snapshot;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (auto& [id, peer] : peers_) snapshot.push_back(peer);
  }
  for (auto& peer : snapshot) peer->mark_dead();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
  for (auto& peer : snapshot) {
    if (peer->reader.joinable()) peer->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    // Fold the final peers' traffic into the dead totals so stats() stays
    // complete after shutdown (reports run post-stop).
    for (auto& [id, peer] : peers_) {
      dead_bytes_in_.fetch_add(peer->bytes_in.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      dead_bytes_out_.fetch_add(
          peer->bytes_out.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    peers_.clear();
  }
  started_ = false;
}

Bytes PeerManager::our_handshake() {
  HandshakeMsg hs = config_.handshake;
  if (height_provider_) hs.head_height = height_provider_();
  return hs.encode();
}

void PeerManager::accept_loop() {
  for (;;) {
    auto socket = listener_.accept();
    if (!socket.has_value()) return;  // interrupted or fatal
    if (stopping_.load()) return;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    adopt_socket(std::move(*socket), /*outbound=*/false, /*dial_index=*/-1);
  }
}

void PeerManager::adopt_socket(TcpSocket socket, bool outbound, int dial_index) {
  socket.set_nodelay(true);
  // The receive timeout is a periodic wakeup so readers notice shutdown even
  // if the remote end hangs without closing.
  socket.set_timeouts(config_.send_timeout_ms, /*recv_ms=*/500);

  std::shared_ptr<Peer> peer;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    const std::uint64_t id = next_session_id_++;
    peer = std::make_shared<Peer>(id, std::move(socket), outbound, dial_index);
    peers_.emplace(id, peer);
    if (dial_index >= 0) {
      dial_slots_[static_cast<std::size_t>(dial_index)].session_id = id;
    }
  }
  peer->last_recv_ms.store(steady_now_ms(), std::memory_order_relaxed);

  // Both sides speak first: the handshake goes out immediately and the
  // reader requires the first incoming frame to be the remote's handshake.
  if (!peer->send_frame(consensus::kP2pHandshake, our_handshake())) {
    peer->mark_dead();
  }
  peer->reader = std::thread([this, peer] { reader_loop(peer); });
}

void PeerManager::reader_loop(const std::shared_ptr<Peer>& peer) {
  std::uint8_t buf[16384];
  while (!peer->dead() && !stopping_.load()) {
    const int n = peer->socket().recv_some(buf, sizeof(buf));
    if (n == -1) continue;  // receive-timeout tick: re-check flags
    if (n <= 0) break;      // orderly close or hard error
    peer->bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
    peer->last_recv_ms.store(steady_now_ms(), std::memory_order_relaxed);
    peer->decoder().feed(ByteSpan(buf, static_cast<std::size_t>(n)));
    try {
      while (auto frame = peer->decoder().poll()) {
        if (!handle_frame(*peer, *frame)) {
          peer->mark_dead();
          break;
        }
      }
    } catch (const FrameError&) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    } catch (const DecodeError&) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  const bool was_ready = peer->ready();
  peer->mark_dead();
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  if (was_ready && on_disconnect_ && !stopping_.load()) on_disconnect_(*peer);
  // The maintenance thread reaps the peer (joins this thread, frees the dial
  // slot); at stop() the manager joins directly.
}

bool PeerManager::handle_frame(Peer& peer, const Frame& frame) {
  if (!peer.ready()) {
    // Nothing but a valid handshake is acceptable on a fresh connection.
    if (frame.type != consensus::kP2pHandshake) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    HandshakeMsg remote;
    try {
      remote = HandshakeMsg::decode(frame.payload);
    } catch (const DecodeError&) {
      handshakes_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const HandshakeReject verdict = check_handshake(
        remote, config_.handshake.network, config_.handshake.version,
        config_.handshake.genesis);
    if (verdict != HandshakeReject::ok) {
      handshakes_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    peer.set_ready(remote);
    if (on_ready_) on_ready_(peer);
    return true;
  }

  switch (frame.type) {
    case consensus::kP2pHandshake:
      // A second handshake is a protocol violation.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case consensus::kP2pPing: {
      const PingMsg ping = PingMsg::decode(frame.payload);
      return peer.send_frame(consensus::kP2pPong, PingMsg{ping.nonce}.encode());
    }
    case consensus::kP2pPong: {
      const PingMsg pong = PingMsg::decode(frame.payload);
      if (pong.nonce == peer.ping_nonce.load(std::memory_order_relaxed)) {
        peer.ping_nonce.store(0, std::memory_order_relaxed);
        pongs_received_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    default:
      if (on_frame_) on_frame_(peer, frame.type, frame.payload);
      return !peer.dead();
  }
}

void PeerManager::maintenance_loop() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> lock(cv_mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(config_.tick_ms),
                   [this] { return stopping_.load(); });
    }
    if (stopping_.load()) return;
    const std::int64_t now = steady_now_ms();
    ping_and_reap(now);
    dial_due_slots(now);
  }
}

void PeerManager::ping_and_reap(std::int64_t now_ms) {
  std::vector<std::shared_ptr<Peer>> snapshot;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (auto& [id, peer] : peers_) snapshot.push_back(peer);
  }

  for (auto& peer : snapshot) {
    if (peer->dead()) continue;
    if (!peer->ready()) {
      // A connection that never completes its handshake gets the pong
      // deadline too (slow-loris protection).
      if (now_ms - peer->last_recv_ms.load(std::memory_order_relaxed) >
          config_.pong_timeout_ms) {
        ping_timeouts_.fetch_add(1, std::memory_order_relaxed);
        peer->mark_dead();
      }
      continue;
    }
    const std::uint64_t outstanding =
        peer->ping_nonce.load(std::memory_order_relaxed);
    if (outstanding != 0) {
      if (now_ms - peer->ping_sent_ms.load(std::memory_order_relaxed) >
          config_.pong_timeout_ms) {
        ping_timeouts_.fetch_add(1, std::memory_order_relaxed);
        peer->mark_dead();
      }
      continue;
    }
    if (now_ms - peer->last_recv_ms.load(std::memory_order_relaxed) >=
        config_.ping_interval_ms) {
      const std::uint64_t nonce = jitter_rng_.next_u64() | 1;  // never 0
      peer->ping_nonce.store(nonce, std::memory_order_relaxed);
      peer->ping_sent_ms.store(now_ms, std::memory_order_relaxed);
      pings_sent_.fetch_add(1, std::memory_order_relaxed);
      if (!peer->send_frame(consensus::kP2pPing, PingMsg{nonce}.encode())) {
        peer->mark_dead();
      }
    }
  }

  // Reap: join readers of dead peers and free their dial slots so the
  // dialer below can schedule a redial.
  for (auto& peer : snapshot) {
    if (!peer->dead()) continue;
    if (peer->reader.joinable() &&
        peer->reader.get_id() != std::this_thread::get_id()) {
      peer->reader.join();
    } else if (peer->reader.joinable()) {
      continue;  // cannot join ourselves; next tick
    }
    dead_bytes_in_.fetch_add(peer->bytes_in.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    dead_bytes_out_.fetch_add(peer->bytes_out.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(peers_mu_);
      peers_.erase(peer->session_id());
    }
    if (peer->dial_index() >= 0) {
      DialSlot& slot = dial_slots_[static_cast<std::size_t>(peer->dial_index())];
      if (slot.session_id == peer->session_id()) {
        slot.session_id = 0;
        slot.attempts = 0;  // fresh backoff ladder for the redial
        slot.next_attempt_ms = 0;
      }
    }
  }
}

void PeerManager::dial_due_slots(std::int64_t now_ms) {
  for (std::size_t i = 0; i < dial_slots_.size(); ++i) {
    DialSlot& slot = dial_slots_[i];
    if (slot.session_id != 0) continue;
    if (now_ms < slot.next_attempt_ms) continue;
    if (stopping_.load()) return;

    dials_attempted_.fetch_add(1, std::memory_order_relaxed);
    if (slot.ever_connected && slot.attempts == 0) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    }
    TcpSocket socket =
        TcpSocket::connect(slot.host, slot.port, config_.dial_timeout_ms);
    if (!socket.valid()) {
      dials_failed_.fetch_add(1, std::memory_order_relaxed);
      // Exponential backoff, capped, with +/-25% jitter so a restarted
      // network does not redial in lockstep.
      const std::int64_t base = std::min<std::int64_t>(
          config_.backoff_max_ms,
          static_cast<std::int64_t>(config_.backoff_initial_ms)
              << std::min<std::uint32_t>(slot.attempts, 16));
      const double jitter = 0.75 + 0.5 * jitter_rng_.next_double();
      slot.next_attempt_ms =
          now_ms + static_cast<std::int64_t>(static_cast<double>(base) * jitter);
      ++slot.attempts;
      continue;
    }
    slot.attempts = 0;
    slot.ever_connected = true;
    adopt_socket(std::move(socket), /*outbound=*/true, static_cast<int>(i));
  }
}

bool PeerManager::send(std::uint64_t session_id, std::uint32_t type,
                       ByteSpan payload) {
  std::shared_ptr<Peer> peer;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    const auto it = peers_.find(session_id);
    if (it == peers_.end()) return false;
    peer = it->second;
  }
  if (peer->dead() || !peer->ready()) return false;
  return peer->send_frame(type, payload);
}

void PeerManager::broadcast(std::uint32_t type, ByteSpan payload,
                            std::uint64_t exclude_session) {
  for (const auto& peer : ready_peers()) {
    if (peer->session_id() == exclude_session) continue;
    if (!peer->send_frame(type, payload)) peer->mark_dead();
  }
}

std::vector<std::shared_ptr<Peer>> PeerManager::ready_peers() const {
  std::vector<std::shared_ptr<Peer>> out;
  std::lock_guard<std::mutex> lock(peers_mu_);
  out.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) {
    if (peer->ready() && !peer->dead()) out.push_back(peer);
  }
  return out;
}

std::size_t PeerManager::ready_peer_count() const {
  return ready_peers().size();
}

PeerManager::Stats PeerManager::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.dials_attempted = dials_attempted_.load();
  s.dials_failed = dials_failed_.load();
  s.reconnects = reconnects_.load();
  s.handshakes_rejected = handshakes_rejected_.load();
  s.protocol_errors = protocol_errors_.load();
  s.disconnects = disconnects_.load();
  s.pings_sent = pings_sent_.load();
  s.pongs_received = pongs_received_.load();
  s.ping_timeouts = ping_timeouts_.load();
  s.bytes_in = dead_bytes_in_.load();
  s.bytes_out = dead_bytes_out_.load();
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (const auto& [id, peer] : peers_) {
    s.bytes_in += peer->bytes_in.load(std::memory_order_relaxed);
    s.bytes_out += peer->bytes_out.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace themis::p2p
