#include "net/gossip.h"

#include <algorithm>
#include <unordered_set>

#include "obs/observability.h"

namespace themis::net {

GossipNetwork::GossipNetwork(Simulation& sim, LinkConfig link_config,
                             std::size_t n_nodes, std::size_t fanout,
                             std::uint64_t topology_seed)
    : sim_(sim),
      links_(n_nodes, link_config),
      peers_(n_nodes),
      handlers_(n_nodes),
      seen_(n_nodes) {
  expects(n_nodes >= 2, "network needs at least two nodes");
  expects(fanout >= 1, "fanout must be at least 1");

  // Random overlay: each node picks `fanout` distinct peers; edges are made
  // undirected so the graph is connected with overwhelming probability for
  // fanout >= 2 (and we additionally chain i -> i+1 as a connectivity floor).
  Rng rng(topology_seed);
  std::vector<std::unordered_set<PeerId>> adj(n_nodes);
  for (PeerId i = 0; i < n_nodes; ++i) {
    adj[i].insert(static_cast<PeerId>((i + 1) % n_nodes));
    adj[(i + 1) % n_nodes].insert(i);
    std::size_t picked = 0;
    std::size_t attempts = 0;
    while (picked + 1 < fanout && attempts < 16 * fanout) {
      ++attempts;
      const PeerId candidate = static_cast<PeerId>(rng.next_below(n_nodes));
      if (candidate == i || adj[i].contains(candidate)) continue;
      adj[i].insert(candidate);
      adj[candidate].insert(i);
      ++picked;
    }
  }
  for (PeerId i = 0; i < n_nodes; ++i) {
    peers_[i].assign(adj[i].begin(), adj[i].end());
    std::sort(peers_[i].begin(), peers_[i].end());  // deterministic order
  }
}

void GossipNetwork::set_handler(PeerId node, Handler handler) {
  expects(node < handlers_.size(), "node id out of range");
  handlers_[node] = std::move(handler);
}

void GossipNetwork::set_drop_filter(
    std::function<bool(PeerId, PeerId, const Message&)> f) {
  drop_filter_ = std::move(f);
}

const std::vector<PeerId>& GossipNetwork::peers(PeerId node) const {
  expects(node < peers_.size(), "node id out of range");
  return peers_[node];
}

bool GossipNetwork::first_sight(PeerId node, std::uint64_t id) {
  std::vector<std::uint64_t>& bits = seen_[node];
  const std::size_t word = id >> 6;
  if (word >= bits.size()) bits.resize(word + 1, 0);
  const std::uint64_t mask = std::uint64_t{1} << (id & 63);
  if ((bits[word] & mask) != 0) return false;
  bits[word] |= mask;
  return true;
}

std::uint64_t GossipNetwork::broadcast(PeerId origin, std::uint32_t type,
                                       std::size_t size_bytes, std::any payload) {
  expects(origin < peers_.size(), "origin id out of range");
  auto msg = std::make_shared<Message>();
  msg->id = next_message_id_++;
  msg->type = type;
  msg->origin = origin;
  msg->size_bytes = size_bytes;
  msg->flood = true;
  msg->payload = std::move(payload);
  first_sight(origin, msg->id);
  const std::uint64_t id = msg->id;
  relay(origin, std::shared_ptr<const Message>(std::move(msg)),
        /*skip=*/origin);
  return id;
}

void GossipNetwork::send(PeerId from, PeerId to, std::uint32_t type,
                         std::size_t size_bytes, std::any payload) {
  expects(from < peers_.size() && to < peers_.size(), "node id out of range");
  auto msg = std::make_shared<Message>();
  msg->id = next_message_id_++;
  msg->type = type;
  msg->origin = from;
  msg->size_bytes = size_bytes;
  msg->payload = std::move(payload);
  deliver(from, to, std::move(msg));
}

void GossipNetwork::deliver(PeerId from, PeerId to,
                            std::shared_ptr<const Message> msg) {
  if (drop_filter_ && drop_filter_(from, to, *msg)) return;
  const SimTime arrival = links_.enqueue_send(from, sim_.now(), msg->size_bytes);
  if (obs::Observability* o = sim_.obs();
      o != nullptr && o->tracer.enabled()) {
    o->tracer.emit(sim_.now(), "gossip_send",
                   {obs::Field::u64("from", from), obs::Field::u64("to", to),
                    obs::Field::u64("msg", msg->id),
                    obs::Field::u64("type", msg->type),
                    obs::Field::u64("bytes", msg->size_bytes)});
  }
  // 32-byte capture (this, endpoints, shared message) — stays inline in the
  // event arena; the whole fanout shares one immutable Message.
  sim_.schedule_at(arrival, [this, from, to, msg = std::move(msg)] {
    arrive(from, to, msg);
  });
}

void GossipNetwork::arrive(PeerId from, PeerId to,
                           const std::shared_ptr<const Message>& msg) {
  ++messages_delivered_;
  if (msg->flood) {
    // Flood semantics: first receipt triggers handler + relay.
    if (!first_sight(to, msg->id)) {
      ++duplicates_dropped_;
      if (obs::Observability* o = sim_.obs();
          o != nullptr && o->tracer.enabled()) {
        o->tracer.emit(sim_.now(), "gossip_dup",
                       {obs::Field::u64("from", from),
                        obs::Field::u64("to", to),
                        obs::Field::u64("msg", msg->id)});
      }
      return;
    }
    if (handlers_[to]) handlers_[to](to, *msg);
    relay(to, msg, from);
  } else {
    if (handlers_[to]) handlers_[to](to, *msg);
  }
}

void GossipNetwork::relay(PeerId node, const std::shared_ptr<const Message>& msg,
                          PeerId skip) {
  for (const PeerId peer : peers_[node]) {
    if (peer == skip) continue;
    deliver(node, peer, msg);
  }
}

}  // namespace themis::net
