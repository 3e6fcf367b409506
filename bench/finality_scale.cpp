// Checkpoint finality at simulator scale: a Themis/GEOST sweep over
// consortium size n and checkpoint interval k.  Every simulated node runs
// the daemon's finality code (consensus::ChainCore: own votes, quorum,
// parked certificates, hard-finalized fork choice) and floods its votes next
// to block announcements.  Reports, per (n, k) point, how far the head runs
// ahead of hard finality (lag in blocks) and how long a checkpoint takes to
// certify after the head first reaches it (latency in simulated seconds) —
// the cost of bolting BFT finality onto the probabilistic chain.  The lag
// and latency bookkeeping reads each node's chain listener; votes,
// certificates and finalized heights are PowNode observers.
//
//   --nodes=<n[,n...]>     consortium sizes (default 100,200,400; --quick: 100)
//   --interval=<k[,k...]>  checkpoint intervals (default 8,16,32; --quick: 16)
//   --height=<h>           target main-chain height per point (default 96;
//                          --quick: 48)
//   --json=<path>          write machine-readable results
//   --floors=<path>        JSON perf floors; exit 2 when violated
//                          (keys "finality_max_lag_blocks" — max head/finality
//                          lag at certification — and
//                          "finality_min_certificates" per point)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "rpc/json.h"
#include "sim/experiment.h"
#include "sim/power_dist.h"

namespace {

using namespace themis;

std::vector<std::uint64_t> parse_list(std::string_view spec) {
  std::vector<std::uint64_t> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string item(spec.substr(begin, end - begin));
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    begin = end + 1;
  }
  return out;
}

struct PointResult {
  std::size_t nodes = 0;
  std::uint64_t interval = 0;
  std::uint64_t votes = 0;
  std::uint64_t certificates = 0;
  std::uint64_t finalized_min = UINT64_MAX;
  std::uint64_t finalized_max = 0;
  /// Per node and checkpoint: blocks from the checkpoint to the head when it
  /// finalized, and seconds from the head first reaching it to finality.
  metrics::Summary lag, latency;
  double sim_s = 0.0;
  double wall_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::ArgParser parser(argc, argv);
  constexpr std::string_view kUsage =
      "finality_scale [--nodes=<n,..>] [--interval=<k,..>] [--height=<h>] "
      "[--quick] [--seed=<u64>] [--csv] [--json=<path>] [--floors=<path>]";
  const bool quick = parser.flag("--quick");
  const bool csv = parser.flag("--csv");
  const std::uint64_t seed = parser.value_u64("--seed", 1);
  const std::uint64_t height = parser.value_u64("--height", quick ? 48 : 96);
  std::vector<std::uint64_t> sizes =
      quick ? std::vector<std::uint64_t>{100}
            : std::vector<std::uint64_t>{100, 200, 400};
  if (const auto v = parser.value("--nodes")) sizes = parse_list(*v);
  std::vector<std::uint64_t> intervals =
      quick ? std::vector<std::uint64_t>{16}
            : std::vector<std::uint64_t>{8, 16, 32};
  if (const auto v = parser.value("--interval")) intervals = parse_list(*v);
  std::string json_path;
  if (const auto v = parser.value("--json")) json_path = *v;
  std::string floors_path;
  if (const auto v = parser.value("--floors")) floors_path = *v;
  parser.reject_unknown(kUsage);
  if (sizes.empty() || intervals.empty() || height == 0) {
    std::cerr << "error: need --nodes, --interval and --height > 0\n";
    return 1;
  }

  bench::banner("Checkpoint finality: lag and latency vs n and interval k",
                "checkpoint finality sweep (Themis/GEOST, the daemon's "
                "finality code, gossiped votes)");

  const bench::WallTimer total_timer;
  std::vector<PointResult> results;
  for (const std::uint64_t n : sizes) {
    for (const std::uint64_t k : intervals) {
      sim::PoxConfig config;
      config.algorithm = core::Algorithm::kThemis;
      config.n_nodes = n;
      config.hash_rates = sim::uniform_power(n, config.h0);
      config.beta = 8;
      config.expected_interval_s = 4.0;
      config.txs_per_block = 0;
      config.seed = seed;
      config.checkpoint_interval = k;

      PointResult r;
      r.nodes = n;
      r.interval = k;

      const bench::WallTimer point_timer;
      sim::PoxExperiment exp(config);
      // Sim time each node's head first reached each checkpoint height.
      std::vector<std::unordered_map<std::uint64_t, SimTime>> reached(
          exp.size());
      std::vector<double> lags, latencies;
      for (std::size_t i = 0; i < exp.size(); ++i) {
        exp.node(i).set_chain_listener(
            [&, i](const consensus::PowNode& node,
                   const consensus::ChainCore::Effects& fx) {
              const SimTime now = exp.simulation().now();
              const std::uint64_t head = node.head_height();
              // Newest first, down to the first height already stamped.
              for (std::uint64_t h = (head / k) * k; fx.head_changed && h >= k;
                   h -= k) {
                if (!reached[i].emplace(h, now).second) break;
              }
              for (const finality::CheckpointCertificate& c : fx.finalized) {
                lags.push_back(static_cast<double>(head - c.height));
                if (const auto it = reached[i].find(c.height);
                    it != reached[i].end()) {
                  latencies.push_back((now - it->second).to_seconds());
                }
              }
            });
      }
      exp.run_to_height(height, SimTime::seconds(1e7));
      r.wall_s = point_timer.seconds();
      r.sim_s = exp.elapsed().to_seconds();
      r.lag = metrics::summarize(lags);
      r.latency = metrics::summarize(latencies);
      for (std::size_t i = 0; i < exp.size(); ++i) {
        const consensus::PowNode& node = exp.node(i);
        r.votes += node.votes_sent();
        r.certificates +=
            node.core().checkpoints()->stats().certificates_formed;
        r.finalized_min = std::min(r.finalized_min, node.finalized_height());
        r.finalized_max = std::max(r.finalized_max, node.finalized_height());
      }
      results.push_back(r);
    }
  }

  metrics::Table t({"nodes", "k", "height", "votes", "certs", "fin min",
                    "fin max", "mean lag", "max lag", "mean lat s",
                    "max lat s", "wall s"});
  for (const PointResult& r : results) {
    t.add_row({std::to_string(r.nodes), std::to_string(r.interval),
               std::to_string(height), std::to_string(r.votes),
               std::to_string(r.certificates), std::to_string(r.finalized_min),
               std::to_string(r.finalized_max),
               metrics::Table::num(r.lag.mean, 2),
               std::to_string(static_cast<std::uint64_t>(r.lag.max)),
               metrics::Table::num(r.latency.mean, 2),
               metrics::Table::num(r.latency.max, 2),
               metrics::Table::num(r.wall_s, 2)});
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cerr << "[finality_scale] total wall: " << total_timer.seconds()
            << "s\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
    } else {
      out << "{\n  \"benchmark\": \"finality_scale\",\n"
          << "  \"config\": {\"algorithm\": \"themis-geost\", \"beta\": 8, "
          << "\"interval_s\": 4.0, \"seed\": " << seed
          << ", \"height\": " << height << "},\n  \"points\": [\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult& r = results[i];
        out << "    {\"nodes\": " << r.nodes << ", \"interval\": " << r.interval
            << ", \"votes\": " << r.votes
            << ", \"certificates\": " << r.certificates
            << ", \"finalized_min\": " << r.finalized_min
            << ", \"finalized_max\": " << r.finalized_max
            << ", \"mean_lag_blocks\": " << r.lag.mean
            << ", \"max_lag_blocks\": " << r.lag.max
            << ", \"mean_latency_s\": " << r.latency.mean
            << ", \"max_latency_s\": " << r.latency.max
            << ", \"sim_s\": " << r.sim_s << ", \"wall_s\": " << r.wall_s
            << "}" << (i + 1 < results.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      std::cerr << "[finality_scale] wrote " << json_path << "\n";
    }
  }

  if (!floors_path.empty()) {
    rpc::Json floors;
    if (!bench::read_floors(floors_path, floors)) return 1;
    bool violated = false;
    if (floors.has("finality_max_lag_blocks")) {
      const double cap = floors["finality_max_lag_blocks"].as_double();
      for (const PointResult& r : results) {
        if (r.lag.max > cap) {
          std::cerr << "FLOOR VIOLATED: n=" << r.nodes << " k=" << r.interval
                    << " max finality lag " << r.lag.max << " > " << cap
                    << " blocks\n";
          violated = true;
        }
      }
    }
    if (floors.has("finality_min_certificates")) {
      const double floor = floors["finality_min_certificates"].as_double();
      for (const PointResult& r : results) {
        if (static_cast<double>(r.certificates) < floor) {
          std::cerr << "FLOOR VIOLATED: n=" << r.nodes << " k=" << r.interval
                    << " certificates " << r.certificates << " < " << floor
                    << "\n";
          violated = true;
        }
      }
    }
    if (violated) return 2;
    std::cerr << "[finality_scale] all perf floors met (" << floors_path
              << ")\n";
  }
  return 0;
}
