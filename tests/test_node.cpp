#include "consensus/node.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/themis_node.h"

namespace themis::consensus {
namespace {

net::LinkConfig paper_link() {
  return net::LinkConfig{.bandwidth_bps = 20e6, .min_delay = SimTime::millis(100)};
}

struct TwoNodeNet {
  TwoNodeNet() : network(sim, paper_link(), 2, 1, 11) {}

  NodeConfig config_for(ledger::NodeId id, double hash_rate) const {
    NodeConfig c;
    c.id = id;
    c.n_nodes = 2;
    c.hash_rate = hash_rate;
    c.rng_seed = 100 + id;
    return c;
  }

  net::Simulation sim;
  net::GossipNetwork network;
};

TEST(PowNode, RejectsBadConfig) {
  TwoNodeNet env;
  auto rule = std::make_shared<GhostRule>();
  auto policy = std::make_shared<FixedDifficulty>(10.0);
  NodeConfig c = env.config_for(2, 1.0);  // id out of range
  EXPECT_THROW(PowNode(env.sim, env.network, c, rule, policy), PreconditionError);
  c = env.config_for(0, 1.0);
  c.use_signatures = true;  // without a registry
  EXPECT_THROW(PowNode(env.sim, env.network, c, rule, policy), PreconditionError);
  EXPECT_THROW(PowNode(env.sim, env.network, env.config_for(0, 1.0), nullptr,
                       policy),
               PreconditionError);
}

TEST(PowNode, MinesAndConvergesToCommonChain) {
  TwoNodeNet env;
  auto rule = std::make_shared<GhostRule>();
  // Two nodes at 1 hash/s, difficulty 10 -> ~5 s interval overall.
  PowNode a(env.sim, env.network, env.config_for(0, 1.0), rule,
            std::make_shared<FixedDifficulty>(10.0));
  PowNode b(env.sim, env.network, env.config_for(1, 1.0), rule,
            std::make_shared<FixedDifficulty>(10.0));
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(400.0));

  EXPECT_GT(a.head_height(), 10u);
  // Heads agree up to propagation slack: each node's chain is a prefix of the
  // other's or they share all but the tip.
  const auto chain_a = a.main_chain();
  const auto chain_b = b.main_chain();
  const std::size_t common = std::min(chain_a.size(), chain_b.size()) - 1;
  for (std::size_t i = 0; i + 1 < common; ++i) {
    EXPECT_EQ(chain_a[i], chain_b[i]) << "height " << i;
  }
  EXPECT_GT(a.blocks_produced() + b.blocks_produced(), 10u);
}

TEST(PowNode, ProductionShareTracksHashRate) {
  TwoNodeNet env;
  auto rule = std::make_shared<GhostRule>();
  // Node 0 has 3x the power of node 1 under equal difficulty (PoW-H).
  PowNode a(env.sim, env.network, env.config_for(0, 3.0), rule,
            std::make_shared<FixedDifficulty>(8.0));
  PowNode b(env.sim, env.network, env.config_for(1, 1.0), rule,
            std::make_shared<FixedDifficulty>(8.0));
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(2000.0));

  const auto producers = [&] {
    std::vector<ledger::NodeId> out;
    const auto chain = a.main_chain();
    for (std::size_t i = 1; i < chain.size(); ++i) {
      out.push_back(a.tree().block(chain[i])->producer());
    }
    return out;
  }();
  ASSERT_GT(producers.size(), 100u);
  const double share0 =
      static_cast<double>(std::count(producers.begin(), producers.end(), 0u)) /
      static_cast<double>(producers.size());
  EXPECT_NEAR(share0, 0.75, 0.08);
}

TEST(PowNode, SuppressedProducerNeverLandsBlocks) {
  TwoNodeNet env;
  auto rule = std::make_shared<GhostRule>();
  PowNode a(env.sim, env.network, env.config_for(0, 1.0), rule,
            std::make_shared<FixedDifficulty>(10.0));
  PowNode b(env.sim, env.network, env.config_for(1, 1.0), rule,
            std::make_shared<FixedDifficulty>(10.0));
  b.set_producer_suppressed(true);
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(500.0));

  EXPECT_GT(b.blocks_suppressed(), 0u);
  const auto chain = a.main_chain();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(a.tree().block(chain[i])->producer(), 0u) << "height " << i;
  }
  // The suppressed node still follows the chain built by the honest node.
  EXPECT_GT(b.head_height(), 5u);
}

TEST(PowNode, SignaturePathVerifies) {
  TwoNodeNet env;
  auto registry = std::make_shared<KeyRegistry>();
  registry->add(0, crypto::Keypair::from_node_id(0).public_key());
  registry->add(1, crypto::Keypair::from_node_id(1).public_key());
  auto rule = std::make_shared<GhostRule>();
  NodeConfig ca = env.config_for(0, 1.0);
  NodeConfig cb = env.config_for(1, 1.0);
  ca.use_signatures = cb.use_signatures = true;
  PowNode a(env.sim, env.network, ca, rule,
            std::make_shared<FixedDifficulty>(5.0), registry);
  PowNode b(env.sim, env.network, cb, rule,
            std::make_shared<FixedDifficulty>(5.0), registry);
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(100.0));
  EXPECT_GT(a.head_height(), 3u);
  EXPECT_EQ(a.blocks_rejected(), 0u);
  EXPECT_EQ(b.blocks_rejected(), 0u);
}

TEST(PowNode, ForgedProducerIdRejected) {
  TwoNodeNet env;
  auto registry = std::make_shared<KeyRegistry>();
  registry->add(0, crypto::Keypair::from_node_id(0).public_key());
  // Node 1's key is deliberately *wrong* in the registry: its blocks must be
  // rejected by node 0.
  registry->add(1, crypto::Keypair::from_node_id(99).public_key());
  auto rule = std::make_shared<GhostRule>();
  NodeConfig ca = env.config_for(0, 1.0);
  NodeConfig cb = env.config_for(1, 5.0);  // node 1 mines a lot
  ca.use_signatures = cb.use_signatures = true;
  PowNode a(env.sim, env.network, ca, rule,
            std::make_shared<FixedDifficulty>(5.0), registry);
  PowNode b(env.sim, env.network, cb, rule,
            std::make_shared<FixedDifficulty>(5.0), registry);
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(200.0));
  EXPECT_GT(a.blocks_rejected(), 0u);
  // Node 0's main chain contains only its own blocks.
  const auto chain = a.main_chain();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(a.tree().block(chain[i])->producer(), 0u);
  }
}

TEST(PowNode, StartTwiceThrows) {
  TwoNodeNet env;
  PowNode a(env.sim, env.network, env.config_for(0, 1.0),
            std::make_shared<GhostRule>(), std::make_shared<FixedDifficulty>(5.0));
  a.start();
  EXPECT_THROW(a.start(), PreconditionError);
}

TEST(PowNode, StopCancelsMining) {
  TwoNodeNet env;
  PowNode a(env.sim, env.network, env.config_for(0, 1.0),
            std::make_shared<GhostRule>(), std::make_shared<FixedDifficulty>(5.0));
  PowNode b(env.sim, env.network, env.config_for(1, 1.0),
            std::make_shared<GhostRule>(), std::make_shared<FixedDifficulty>(5.0));
  a.start();
  b.start();
  a.stop();
  b.stop();
  env.sim.run_until(SimTime::seconds(100.0));
  EXPECT_EQ(a.blocks_produced() + b.blocks_produced(), 0u);
}

TEST(PowNode, HeadListenerFires) {
  TwoNodeNet env;
  PowNode a(env.sim, env.network, env.config_for(0, 1.0),
            std::make_shared<GhostRule>(), std::make_shared<FixedDifficulty>(5.0));
  PowNode b(env.sim, env.network, env.config_for(1, 1.0),
            std::make_shared<GhostRule>(), std::make_shared<FixedDifficulty>(5.0));
  std::uint64_t calls = 0;
  a.set_chain_listener([&](const PowNode& node, const ChainCore::Effects& fx) {
    ++calls;
    EXPECT_EQ(&node, &a);
    EXPECT_TRUE(fx.head_changed);  // finality is off: only head moves fire
  });
  a.start();
  b.start();
  env.sim.run_until(SimTime::seconds(100.0));
  // At least one listener call per main-chain extension (reorgs add more).
  EXPECT_GE(calls, a.head_height());
  EXPECT_GT(calls, 0u);
}

TEST(ThemisFactories, ProduceWorkingNodes) {
  net::Simulation sim;
  net::GossipNetwork network(sim, paper_link(), 4, 2, 5);
  core::AdaptiveConfig adaptive;
  adaptive.n_nodes = 4;
  adaptive.delta = 8;
  adaptive.expected_interval_s = 2.0;
  adaptive.h0 = 1.0;
  adaptive.initial_base_difficulty = 2.0 * 4.0;  // I0 * total power

  std::vector<std::unique_ptr<PowNode>> nodes;
  for (ledger::NodeId i = 0; i < 4; ++i) {
    NodeConfig c;
    c.id = i;
    c.n_nodes = 4;
    c.hash_rate = 1.0;
    c.rng_seed = 50 + i;
    switch (i % 3) {
      case 0:
        nodes.push_back(core::make_themis_node(sim, network, c, adaptive));
        break;
      case 1:
        nodes.push_back(core::make_themis_lite_node(sim, network, c, adaptive));
        break;
      default: {
        core::AdaptiveConfig powh = adaptive;
        powh.initial_base_difficulty = 8.0;
        nodes.push_back(core::make_powh_node(sim, network, c, powh));
      }
    }
  }
  for (auto& n : nodes) n->start();
  sim.run_until(SimTime::seconds(300.0));
  for (auto& n : nodes) EXPECT_GT(n->head_height(), 10u);
}

TEST(Algorithm, NamesAreStable) {
  EXPECT_EQ(core::to_string(core::Algorithm::kThemis), "Themis");
  EXPECT_EQ(core::to_string(core::Algorithm::kThemisLite), "Themis-Lite");
  EXPECT_EQ(core::to_string(core::Algorithm::kPowH), "PoW-H");
  EXPECT_EQ(core::to_string(core::Algorithm::kPbft), "PBFT");
}

}  // namespace
}  // namespace themis::consensus
