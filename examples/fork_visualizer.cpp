// Fork visualizer: renders a node's block tree as ASCII and annotates which
// chain each main-chain rule (longest / GHOST / GEOST) selects.
//
// With no arguments it runs a short 16-node Themis simulation and visualizes
// the reference node's tree; pass a seed to explore other runs:
//
//   build/examples/fork_visualizer [seed]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "consensus/forkchoice.h"
#include "core/geost.h"
#include "sim/experiment.h"
#include "sim/power_dist.h"

using namespace themis;

namespace {

void render(const ledger::BlockTree& tree, const ledger::BlockHash& node,
            const std::string& indent, bool last,
            const std::map<ledger::BlockHash, std::string, std::less<>>& tags) {
  std::string line = indent;
  if (!indent.empty()) line += last ? "`-- " : "|-- ";
  const auto block = tree.block(node);
  line.append("h").append(std::to_string(block->height()));
  if (block->producer() != ledger::kNoNode) {
    line += " (node " + std::to_string(block->producer()) + ")";
  } else {
    line += " (genesis)";
  }
  line.append(" ").append(to_hex(node).substr(0, 8));
  const auto tag = tags.find(node);
  if (tag != tags.end()) line += "   <== " + tag->second;
  std::printf("%s\n", line.c_str());

  const auto& children = tree.children(node);
  for (std::size_t i = 0; i < children.size(); ++i) {
    render(tree, children[i], indent + (indent.empty() ? "" : (last ? "    " : "|   ")),
           i + 1 == children.size(), tags);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  std::printf("fork_visualizer: 16-node Themis run, seed %llu\n\n",
              static_cast<unsigned long long>(seed));

  sim::PoxConfig cfg;
  cfg.algorithm = core::Algorithm::kThemis;
  cfg.n_nodes = 16;
  cfg.hash_rates = sim::uniform_power(16, 100.0);
  cfg.beta = 4;
  cfg.expected_interval_s = 1.0;  // fast blocks -> visible forks
  cfg.link.min_delay = SimTime::millis(300);
  cfg.txs_per_block = 0;
  cfg.seed = seed;
  sim::PoxExperiment exp(cfg);
  exp.run_to_height(24);

  const auto& tree = exp.reference().tree();

  consensus::LongestChainRule longest;
  consensus::GhostRule ghost;
  core::GeostRule geost(16);
  const auto start = tree.genesis_hash();
  std::map<ledger::BlockHash, std::string, std::less<>> tags;
  const auto mark = [&](const ledger::BlockHash& head, const std::string& rule) {
    auto& tag = tags[head];
    tag = tag.empty() ? rule : tag + ", " + rule;
  };
  mark(longest.choose_head(tree, start), "longest");
  mark(ghost.choose_head(tree, start), "GHOST");
  mark(geost.choose_head(tree, start), "GEOST");

  render(tree, start, "", true, tags);

  const auto stats = exp.fork_stats();
  std::printf("\n%llu blocks, %llu on the GEOST main chain, stale rate %.1f%%\n",
              static_cast<unsigned long long>(stats.total_blocks),
              static_cast<unsigned long long>(stats.main_chain_blocks),
              100.0 * stats.stale_rate);
  std::printf("%llu fork run(s); longest spans %llu height(s)\n",
              static_cast<unsigned long long>(stats.fork_count),
              static_cast<unsigned long long>(stats.longest_fork_duration));
  std::printf("\nTip: rerun with a different seed to see GHOST and GEOST "
              "disagree on a weight tie.\n");
  return 0;
}
