#include "net/gossip.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/observability.h"
#include "obs/trace_reader.h"

namespace themis::net {
namespace {

LinkConfig fast_link() {
  return LinkConfig{.bandwidth_bps = 20e6, .min_delay = SimTime::millis(100)};
}

struct Harness {
  explicit Harness(std::size_t n, std::size_t fanout = 3)
      : network(sim, fast_link(), n, fanout, /*topology_seed=*/42),
        deliveries(n, 0) {
    for (PeerId i = 0; i < n; ++i) {
      network.set_handler(i, [this](PeerId self, const Message& msg) {
        ++deliveries[self];
        last_type = msg.type;
        last_payload = msg.payload;
      });
    }
  }

  Simulation sim;
  GossipNetwork network;
  std::vector<int> deliveries;
  std::uint32_t last_type = 0;
  std::any last_payload;
};

TEST(Gossip, BroadcastReachesEveryNode) {
  Harness h(20);
  h.network.broadcast(0, /*type=*/7, /*size=*/100, std::string("hi"));
  h.sim.run();
  for (PeerId i = 1; i < 20; ++i) {
    EXPECT_EQ(h.deliveries[i], 1) << "node " << i;
  }
  // The origin does not deliver to itself.
  EXPECT_EQ(h.deliveries[0], 0);
  EXPECT_EQ(h.last_type, 7u);
}

TEST(Gossip, HandlerFiresOncePerMessageDespiteDuplicates) {
  Harness h(10, /*fanout=*/5);
  h.network.broadcast(3, 1, 50, 0);
  h.sim.run();
  for (PeerId i = 0; i < 10; ++i) {
    EXPECT_LE(h.deliveries[i], 1) << "node " << i;
  }
}

TEST(Gossip, PayloadTravelsIntact) {
  Harness h(4);
  h.network.broadcast(0, 1, 10, std::string("payload!"));
  h.sim.run();
  EXPECT_EQ(std::any_cast<std::string>(h.last_payload), "payload!");
}

TEST(Gossip, TwoBroadcastsAreIndependent) {
  Harness h(10);
  h.network.broadcast(0, 1, 10, 0);
  h.network.broadcast(5, 1, 10, 0);
  h.sim.run();
  for (PeerId i = 0; i < 10; ++i) {
    const int expected = (i == 0 || i == 5) ? 1 : 2;
    EXPECT_EQ(h.deliveries[i], expected) << "node " << i;
  }
}

TEST(Gossip, UnicastDeliversOnlyToTarget) {
  Harness h(6);
  h.network.send(0, 4, 9, 64, std::string("direct"));
  h.sim.run();
  for (PeerId i = 0; i < 6; ++i) {
    EXPECT_EQ(h.deliveries[i], i == 4 ? 1 : 0) << "node " << i;
  }
}

TEST(Gossip, UnicastRespectsPropagationDelay) {
  Harness h(2);
  SimTime arrival;
  h.network.set_handler(1, [&](PeerId, const Message&) { arrival = h.sim.now(); });
  h.network.send(0, 1, 1, 2'500'000, 0);  // 1 s transmission
  h.sim.run();
  EXPECT_EQ(arrival, SimTime::seconds(1.0) + SimTime::millis(100));
}

TEST(Gossip, DropFilterSuppressesDelivery) {
  Harness h(8);
  // Drop everything originating from node 2's links.
  h.network.set_drop_filter(
      [](PeerId from, PeerId, const Message&) { return from == 2; });
  h.network.broadcast(2, 1, 10, 0);
  h.sim.run();
  for (PeerId i = 0; i < 8; ++i) EXPECT_EQ(h.deliveries[i], 0);
}

TEST(Gossip, DropFilterCanTargetSpecificEdges) {
  Harness h(2);
  h.network.set_drop_filter(
      [](PeerId, PeerId to, const Message&) { return to == 1; });
  h.network.send(0, 1, 1, 10, 0);
  h.sim.run();
  EXPECT_EQ(h.deliveries[1], 0);
}

TEST(Gossip, TopologyIsConnectedAndSymmetric) {
  Harness h(50, 4);
  for (PeerId i = 0; i < 50; ++i) {
    for (const PeerId peer : h.network.peers(i)) {
      const auto& back = h.network.peers(peer);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end())
          << i << "<->" << peer;
    }
    EXPECT_GE(h.network.peers(i).size(), 2u);
  }
}

TEST(Gossip, LargerFanoutSpreadsFaster) {
  auto propagation_time = [](std::size_t fanout) {
    Harness h(64, fanout);
    SimTime last;
    for (PeerId i = 0; i < 64; ++i) {
      h.network.set_handler(i, [&, i](PeerId, const Message&) {
        last = std::max(last, h.sim.now());
      });
    }
    h.network.broadcast(0, 1, 1000, 0);
    h.sim.run();
    return last;
  };
  EXPECT_LE(propagation_time(8), propagation_time(2));
}

TEST(Gossip, MessageCountersAdvance) {
  Harness h(5);
  EXPECT_EQ(h.network.messages_delivered(), 0u);
  h.network.broadcast(0, 1, 10, 0);
  h.sim.run();
  EXPECT_GE(h.network.messages_delivered(), 4u);
  EXPECT_GT(h.network.links().total_bytes_sent(), 0u);
}

// Delivery accounting on a hand-computable topology: fanout=1 with n=4
// yields the pure ring 0-1-2-3-0 (the i -> i+1 connectivity floor only).  A
// broadcast from node 0 floods both ways around the ring:
//   0->1, 0->3  (origin pushes to both neighbours)
//   1->2        (first receipt at 1, relayed away from 0)
//   3->2        (first receipt at 3, relayed away from 0)
//   2->3        (2 hears 1's copy first, relays to its other neighbour)
// = 5 deliveries, of which 3->2 and 2->3 find a node that has already seen
// the message: 2 duplicate drops, redundant-push ratio 2/5.
TEST(Gossip, AccountingMatchesHandComputedRing) {
  Harness h(4, /*fanout=*/1);
  for (PeerId i = 0; i < 4; ++i) {
    ASSERT_EQ(h.network.peers(i).size(), 2u) << "ring degree, node " << i;
  }
  obs::Observability obs;
  std::stringstream trace;
  obs.tracer.set_sink(&trace);
  h.sim.set_obs(&obs);

  h.network.broadcast(0, /*type=*/1, /*size=*/100, 0);
  h.sim.run();

  EXPECT_EQ(h.network.messages_delivered(), 5u);
  EXPECT_EQ(h.network.duplicates_dropped(), 2u);
  EXPECT_DOUBLE_EQ(h.network.redundant_push_ratio(), 2.0 / 5.0);
  for (PeerId i = 1; i < 4; ++i) EXPECT_EQ(h.deliveries[i], 1) << i;

  // Per-link traffic, from the trace's gossip_send records: exactly the five
  // directed sends, 100 bytes each.
  std::multiset<std::pair<std::uint64_t, std::uint64_t>> sends;
  for (std::string line; std::getline(trace, line);) {
    const auto event = obs::parse_trace_line(line);
    ASSERT_TRUE(event.has_value()) << line;
    if (event->ev != "gossip_send") continue;
    sends.emplace(event->u64_or("from", 99), event->u64_or("to", 99));
    EXPECT_EQ(event->u64_or("bytes", 0), 100u) << line;
  }
  const std::multiset<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0, 1}, {0, 3}, {1, 2}, {3, 2}, {2, 3}};
  EXPECT_EQ(sends, expected);
}

TEST(Gossip, RedundantPushRatioIsZeroBeforeTraffic) {
  Harness h(4, 1);
  EXPECT_EQ(h.network.redundant_push_ratio(), 0.0);
  EXPECT_EQ(h.network.duplicates_dropped(), 0u);
}

TEST(Gossip, RejectsInvalidConstruction) {
  Simulation sim;
  EXPECT_THROW(GossipNetwork(sim, fast_link(), 1, 2, 1), PreconditionError);
  EXPECT_THROW(GossipNetwork(sim, fast_link(), 4, 0, 1), PreconditionError);
}

TEST(Gossip, InvalidNodeIdsThrow) {
  Harness h(3);
  EXPECT_THROW(h.network.broadcast(3, 1, 1, 0), PreconditionError);
  EXPECT_THROW(h.network.send(0, 9, 1, 1, 0), PreconditionError);
  EXPECT_THROW(h.network.peers(7), PreconditionError);
}

}  // namespace
}  // namespace themis::net
