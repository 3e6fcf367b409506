// Push-gossip message dissemination (§VII-A: "data transmission between
// nodes adopts basic Gossip protocol").
//
// Broadcast floods over a random regular overlay: the origin pushes to its
// peers; every node relays a message the first time it sees it.  Messages
// carry an opaque shared payload plus an explicit wire size — serialization
// correctness is unit-tested separately, and carrying pointers keeps large
// simulations (hundreds of nodes, thousands of blocks) cheap.
//
// The fanout is zero-copy: one immutable Message is built per broadcast (or
// unicast) and every in-flight delivery shares it by shared_ptr, so the
// per-recipient cost is a refcount bump and a 32-byte inline event capture —
// no Message copy, no payload copy, no allocation.  Per-node duplicate
// suppression is a lazily-grown bitmap over the monotone message ids.
//
// Direct point-to-point send() shares the same link model; the PBFT baseline
// is built on it.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/link.h"
#include "net/simulation.h"

namespace themis::net {

using PeerId = std::uint32_t;

struct Message {
  std::uint64_t id = 0;      ///< broadcast dedup key (stable across relays)
  std::uint32_t type = 0;    ///< application-defined discriminator
  PeerId origin = 0;         ///< who created the message
  std::size_t size_bytes = 0;
  bool flood = false;        ///< true for gossip broadcasts, false for unicast
  std::any payload;
};

class GossipNetwork {
 public:
  /// `fanout` peers per node in a random overlay (undirected union, so the
  /// realized degree averages about twice the fanout).
  GossipNetwork(Simulation& sim, LinkConfig link_config, std::size_t n_nodes,
                std::size_t fanout, std::uint64_t topology_seed);

  using Handler = std::function<void(PeerId self, const Message& msg)>;

  /// Install the receive callback for a node (replaces any previous one).
  void set_handler(PeerId node, Handler handler);

  /// Flood a new message from `origin`.  Returns the assigned message id.
  std::uint64_t broadcast(PeerId origin, std::uint32_t type, std::size_t size_bytes,
                          std::any payload);

  /// Direct unicast (no relaying, no dedup) over the same links.
  void send(PeerId from, PeerId to, std::uint32_t type, std::size_t size_bytes,
            std::any payload);

  /// Optional drop rule evaluated per (from, to, message); return true to
  /// drop.  Used to model vulnerable/partitioned nodes (§VII-A attacks).
  void set_drop_filter(std::function<bool(PeerId from, PeerId to, const Message&)> f);

  const std::vector<PeerId>& peers(PeerId node) const;
  std::size_t n_nodes() const { return peers_.size(); }
  AccessLinkModel& links() { return links_; }
  const AccessLinkModel& links() const { return links_; }

  std::uint64_t messages_delivered() const { return messages_delivered_; }
  /// Flood deliveries whose message the receiver had already seen (the
  /// push-gossip redundancy cost).  Subset of messages_delivered().
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  /// Redundant-push ratio: duplicate deliveries / all deliveries (0 before
  /// any delivery).  ~ (mean degree - 2) / mean degree for flood gossip on a
  /// static overlay.
  double redundant_push_ratio() const {
    return messages_delivered_ == 0
               ? 0.0
               : static_cast<double>(duplicates_dropped_) /
                     static_cast<double>(messages_delivered_);
  }

 private:
  void deliver(PeerId from, PeerId to, std::shared_ptr<const Message> msg);
  void arrive(PeerId from, PeerId to, const std::shared_ptr<const Message>& msg);
  void relay(PeerId node, const std::shared_ptr<const Message>& msg, PeerId skip);
  /// Mark `id` seen by `node`; returns true when it was new.
  bool first_sight(PeerId node, std::uint64_t id);

  Simulation& sim_;
  AccessLinkModel links_;
  std::vector<std::vector<PeerId>> peers_;
  std::vector<Handler> handlers_;
  /// Per-node dedup bitmaps indexed by message id (ids are monotone from 1,
  /// so the bitmap grows lazily to next_message_id_/8 bytes per node).
  std::vector<std::vector<std::uint64_t>> seen_;
  std::function<bool(PeerId, PeerId, const Message&)> drop_filter_;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace themis::net
