// Determinism contract of the simulator's mining draws: each node draws its
// waiting times and nonces from its own Rng, so a PoxExperiment run is a pure
// function of its configuration and seed.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "sim/experiment.h"
#include "sim/power_dist.h"

namespace themis {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

sim::PoxConfig small_config() {
  sim::PoxConfig c;
  c.algorithm = core::Algorithm::kThemis;
  c.n_nodes = 10;
  c.hash_rates = sim::uniform_power(10, c.h0);
  c.beta = 8;
  c.expected_interval_s = 4.0;
  c.txs_per_block = 4096;
  c.seed = 1;
  return c;
}

// Golden digest: pins the exact run (event order, RNG consumption, fork
// resolution) of a known configuration.  Any change to simulator internals
// that alters this digest is a determinism break, not a refactor.
TEST(ParallelDraws, GoldenRunDigestUnchanged) {
  sim::PoxExperiment exp(small_config());
  exp.run_to_height(150, SimTime::seconds(2000));

  EXPECT_EQ(bits(exp.tps()), bits(1012.6860817944706));
  EXPECT_EQ(bits(exp.elapsed().to_seconds()), bits(606.70331215700003));
  EXPECT_EQ(exp.simulation().events_processed(), 13122u);

  const std::vector<ledger::NodeId> producers = exp.main_chain_producers();
  ASSERT_EQ(producers.size(), 150u);
  const std::vector<ledger::NodeId> head(producers.begin(),
                                         producers.begin() + 10);
  const std::vector<ledger::NodeId> expected_head{0, 7, 5, 0, 0, 5, 0, 4, 3, 4};
  EXPECT_EQ(head, expected_head);

  std::uint64_t fnv = 14695981039346656037ull;
  for (const ledger::NodeId p : producers) {
    fnv = (fnv ^ p) * 1099511628211ull;
  }
  EXPECT_EQ(fnv, 719638680289947302ull);
}

}  // namespace
}  // namespace themis
