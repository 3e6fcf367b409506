#include "p2p/peer.h"

namespace themis::p2p {

bool Peer::send_frame(std::uint32_t type, ByteSpan payload) {
  const Bytes frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(write_mu_);
  if (dead()) return false;
  if (!socket_.send_all(frame)) {
    return false;
  }
  bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

void Peer::set_ready(const HandshakeMsg& remote) {
  remote_ = remote;  // written by the reader thread before the release store
  ready_.store(true, std::memory_order_release);
}

bool Peer::mark_known(const ledger::BlockHash& id) {
  std::lock_guard<std::mutex> lock(known_mu_);
  if (known_.size() >= kMaxKnown) known_.clear();
  return known_.insert(id).second;
}

bool Peer::knows(const ledger::BlockHash& id) const {
  std::lock_guard<std::mutex> lock(known_mu_);
  return known_.contains(id);
}

}  // namespace themis::p2p
