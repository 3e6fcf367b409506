#include "obs/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "metrics/equality.h"

namespace themis::obs {

namespace {

void touch(NodeTimeline& node, std::int64_t t_ns) {
  if (node.first_ns < 0) node.first_ns = t_ns;
  node.first_ns = std::min(node.first_ns, t_ns);
  node.last_ns = std::max(node.last_ns, t_ns);
}

double nearest_rank(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank - 1, sorted.size() - 1)];
}

}  // namespace

TraceSummary analyze_trace(std::istream& in) {
  TraceSummary summary;

  // block hash -> simulated mining time, for propagation latency.
  std::unordered_map<std::string, std::int64_t> mined_at;
  std::vector<double> propagation_s;
  std::vector<std::pair<std::uint64_t, ledger::NodeId>> chain;  // height, producer
  std::uint64_t depth_sum = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::optional<TraceEvent> parsed = parse_trace_line(line);
    if (!parsed.has_value()) {
      ++summary.malformed_lines;
      continue;
    }
    const TraceEvent& event = *parsed;
    ++summary.event_counts[event.ev];
    if (++summary.total_events == 1) {
      summary.first_ns = event.t_ns;
      summary.last_ns = event.t_ns;
    }
    summary.first_ns = std::min(summary.first_ns, event.t_ns);
    summary.last_ns = std::max(summary.last_ns, event.t_ns);

    const auto node_id =
        static_cast<std::uint32_t>(event.int_or("node", 0));

    if (event.ev == "run_meta") {
      summary.algorithm = event.str_or("algorithm", "");
      summary.n_nodes = event.u64_or("n_nodes", 0);
      summary.delta = event.u64_or("delta", 0);
      summary.seed = event.u64_or("seed", 0);
    } else if (event.ev == "block_mined") {
      NodeTimeline& node = summary.nodes[node_id];
      ++node.mined;
      if (event.bool_or("suppressed", false)) ++node.suppressed;
      touch(node, event.t_ns);
      mined_at.emplace(std::string(event.str_or("hash", "")), event.t_ns);
    } else if (event.ev == "block_received") {
      NodeTimeline& node = summary.nodes[node_id];
      ++node.received;
      touch(node, event.t_ns);
      const auto it = mined_at.find(std::string(event.str_or("hash", "")));
      if (it != mined_at.end() && event.t_ns >= it->second) {
        propagation_s.push_back(
            static_cast<double>(event.t_ns - it->second) / 1e9);
      }
    } else if (event.ev == "block_adopted") {
      NodeTimeline& node = summary.nodes[node_id];
      ++node.adopted;
      touch(node, event.t_ns);
    } else if (event.ev == "reorg") {
      NodeTimeline& node = summary.nodes[node_id];
      ++node.reorgs;
      touch(node, event.t_ns);
      const std::uint64_t depth = event.u64_or("depth", 0);
      ++summary.reorgs.count;
      ++summary.reorgs.depth_counts[depth];
      summary.reorgs.max_depth = std::max(summary.reorgs.max_depth, depth);
      depth_sum += depth;
    } else if (event.ev == "gossip_send") {
      ++summary.gossip_sends;
      summary.gossip_bytes += event.u64_or("bytes", 0);
    } else if (event.ev == "gossip_dup") {
      ++summary.gossip_dup_drops;
    } else if (event.ev == "pbft_view_change") {
      ++summary.view_changes;
      touch(summary.nodes[node_id], event.t_ns);
    } else if (event.ev == "chain_block") {
      chain.emplace_back(
          event.u64_or("height", 0),
          static_cast<ledger::NodeId>(event.int_or("producer", 0)));
    } else if (event.ev == "retarget") {
      summary.base_difficulty_per_epoch.push_back(
          event.num_or("new_base", 0.0));
    }
  }

  if (summary.reorgs.count > 0) {
    summary.reorgs.mean_depth = static_cast<double>(depth_sum) /
                                static_cast<double>(summary.reorgs.count);
  }

  std::sort(propagation_s.begin(), propagation_s.end());
  summary.propagation.samples = propagation_s.size();
  if (!propagation_s.empty()) {
    summary.propagation.p50_s = nearest_rank(propagation_s, 50);
    summary.propagation.p90_s = nearest_rank(propagation_s, 90);
    summary.propagation.p99_s = nearest_rank(propagation_s, 99);
    summary.propagation.max_s = propagation_s.back();
  }

  // Final-chain snapshot: traced in height order already, but sort defensively
  // (stable under merged traces) before deriving the producer sequence.
  std::sort(chain.begin(), chain.end());
  summary.chain_producers.reserve(chain.size());
  for (const auto& [height, producer] : chain) {
    summary.chain_producers.push_back(producer);
  }
  if (summary.delta > 0 && summary.n_nodes > 0 &&
      !summary.chain_producers.empty()) {
    summary.per_epoch_sigma_f2 = metrics::per_epoch_frequency_variance(
        summary.chain_producers, summary.delta, summary.n_nodes);
  }

  return summary;
}

void print_summary(std::ostream& out, const TraceSummary& summary) {
  out << "== trace summary ==\n";
  out << "events: " << summary.total_events << "  span: "
      << static_cast<double>(summary.last_ns - summary.first_ns) / 1e9
      << "s simulated\n";
  if (!summary.algorithm.empty() || summary.n_nodes > 0) {
    out << "run: algorithm=" << summary.algorithm
        << " n_nodes=" << summary.n_nodes << " delta=" << summary.delta
        << " seed=" << summary.seed << "\n";
  }

  if (!summary.nodes.empty()) {
    out << "\n-- per-node timeline --\n";
    out << "node  mined  suppressed  received  adopted  reorgs  first_s  last_s\n";
    for (const auto& [id, node] : summary.nodes) {
      out << id << "  " << node.mined << "  " << node.suppressed << "  "
          << node.received << "  " << node.adopted << "  " << node.reorgs
          << "  " << (node.first_ns < 0 ? 0.0 : static_cast<double>(node.first_ns) / 1e9)
          << "  " << (node.last_ns < 0 ? 0.0 : static_cast<double>(node.last_ns) / 1e9)
          << "\n";
    }
  }

  out << "\n-- reorgs --\n";
  out << "count=" << summary.reorgs.count
      << " mean_depth=" << summary.reorgs.mean_depth
      << " max_depth=" << summary.reorgs.max_depth << "\n";
  for (const auto& [depth, count] : summary.reorgs.depth_counts) {
    out << "  depth " << depth << ": " << count << "\n";
  }

  out << "\n-- propagation (mined -> received, per node) --\n";
  out << "samples=" << summary.propagation.samples
      << " p50=" << summary.propagation.p50_s << "s"
      << " p90=" << summary.propagation.p90_s << "s"
      << " p99=" << summary.propagation.p99_s << "s"
      << " max=" << summary.propagation.max_s << "s\n";

  if (summary.gossip_sends > 0 || summary.gossip_dup_drops > 0) {
    out << "\n-- gossip --\n";
    out << "sends=" << summary.gossip_sends << " bytes=" << summary.gossip_bytes
        << " dup_drops=" << summary.gossip_dup_drops;
    const std::uint64_t deliveries =
        summary.gossip_sends;  // every send is delivered or dup-dropped
    if (deliveries > 0) {
      out << " redundant_ratio="
          << static_cast<double>(summary.gossip_dup_drops) /
                 static_cast<double>(deliveries);
    }
    out << "\n";
  }

  if (summary.view_changes > 0) {
    out << "\n-- pbft --\nview_changes=" << summary.view_changes << "\n";
  }

  if (!summary.per_epoch_sigma_f2.empty()) {
    out << "\n-- per-epoch sigma_f^2 (Eq. 1, exact) --\n";
    for (std::size_t e = 0; e < summary.per_epoch_sigma_f2.size(); ++e) {
      out << "epoch " << e << ": " << summary.per_epoch_sigma_f2[e] << "\n";
    }
  }
  if (!summary.base_difficulty_per_epoch.empty()) {
    out << "\n-- D_base per epoch (retargets) --\n";
    for (std::size_t e = 0; e < summary.base_difficulty_per_epoch.size(); ++e) {
      out << "epoch " << e + 1 << ": " << summary.base_difficulty_per_epoch[e]
          << "\n";
    }
  }
}

}  // namespace themis::obs
