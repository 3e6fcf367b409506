// Simulator scale-out benchmark: a fig6-style GEOST (Themis) sweep at large
// n, reporting discrete-event throughput (events/sec) next to the consensus
// metrics.  This is the headline driver for the calendar-queue/arena event
// core: BENCH_sim_scale.json records events/sec before and after.
//
// Unlike the figure drivers this measures the *simulator*, not the paper's
// claims: uniform power, Themis/GEOST only, throughput per wall-clock second.
//
//   --nodes=<n[,n...]>  consensus set sizes (default 500,1000,2000;
//                       --quick: 500)
//   --height=<h>        target main-chain height per point (default 120;
//                       --quick: 40)
//   --json=<path>       write machine-readable results
//   --floors=<path>     JSON perf floors; exit 2 when violated
//                       (key "sim_min_events_per_sec" applies to every point)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpc/json.h"
#include "sim/experiment.h"
#include "sim/power_dist.h"
#include "sim/trial_runner.h"

namespace {

using namespace themis;

std::vector<std::size_t> parse_sizes(std::string_view spec) {
  std::vector<std::size_t> out;
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
  std::uint64_t height = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  double build_wall_s = 0.0;
  double run_wall_s = 0.0;
  double events_per_sec = 0.0;
  double tps = 0.0;
  double elapsed_sim_s = 0.0;
  std::uint64_t total_blocks = 0;
  std::uint64_t stale_blocks = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::ArgParser parser(argc, argv);
  constexpr std::string_view kUsage =
      "sim_scale [--nodes=<n,..>] [--height=<h>] [--quick] [--seed=<u64>] "
      "[--csv] [--json=<path>] [--floors=<path>]";
  const bool quick = parser.flag("--quick");
  const bool csv = parser.flag("--csv");
  const std::uint64_t seed = parser.value_u64("--seed", 1);
  const std::uint64_t height = parser.value_u64("--height", quick ? 40 : 120);
  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{500}
            : std::vector<std::size_t>{500, 1000, 2000};
  if (const auto v = parser.value("--nodes")) sizes = parse_sizes(*v);
  std::string json_path;
  if (const auto v = parser.value("--json")) json_path = *v;
  std::string floors_path;
  if (const auto v = parser.value("--floors")) floors_path = *v;
  parser.reject_unknown(kUsage);
  if (sizes.empty() || height == 0) {
    std::cerr << "error: need at least one --nodes size and --height > 0\n";
    return 1;
  }

  bench::banner("Simulator scale-out: GEOST sweep throughput at large n",
                "event-core benchmark (fig6-style config, Themis/GEOST)");

  const bench::WallTimer total_timer;
  std::vector<PointResult> results;
  for (const std::size_t n : sizes) {
    sim::PoxConfig config;
    config.algorithm = core::Algorithm::kThemis;
    config.n_nodes = n;
    config.hash_rates = sim::uniform_power(n, config.h0);
    config.beta = 8;
    config.expected_interval_s = 4.0;
    config.txs_per_block = 4096;
    config.seed = seed;

    PointResult r;
    r.nodes = n;
    r.height = height;

    const bench::WallTimer build_timer;
    sim::PoxExperiment exp(config);
    r.build_wall_s = build_timer.seconds();

    const bench::WallTimer run_timer;
    exp.run_to_height(height, SimTime::seconds(1e7));
    r.run_wall_s = run_timer.seconds();

    r.events = exp.simulation().events_processed();
    r.events_per_sec =
        r.run_wall_s > 0 ? static_cast<double>(r.events) / r.run_wall_s : 0.0;
    r.tps = exp.tps();
    r.elapsed_sim_s = exp.elapsed().to_seconds();
    r.pending_peak = exp.simulation().queue_stats().peak_live;
    const metrics::ForkStats forks = exp.fork_stats();
    r.total_blocks = forks.total_blocks;
    r.stale_blocks = forks.stale_blocks;
    results.push_back(r);
  }

  metrics::Table t({"nodes", "height", "events", "run wall s", "events/sec",
                    "TPS", "sim s", "blocks", "stale"});
  for (const PointResult& r : results) {
    t.add_row({std::to_string(r.nodes), std::to_string(r.height),
               std::to_string(r.events), metrics::Table::num(r.run_wall_s, 2),
               metrics::Table::num(r.events_per_sec, 0),
               metrics::Table::num(r.tps, 1),
               metrics::Table::num(r.elapsed_sim_s, 1),
               std::to_string(r.total_blocks), std::to_string(r.stale_blocks)});
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cerr << "[sim_scale] total wall: " << total_timer.seconds() << "s\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
    } else {
      out << "{\n  \"benchmark\": \"sim_scale\",\n"
          << "  \"config\": {\"algorithm\": \"themis-geost\", \"beta\": 8, "
          << "\"interval_s\": 4.0, \"fanout\": 8, \"seed\": " << seed
          << ", \"height\": " << height << "},\n  \"points\": [\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult& r = results[i];
        out << "    {\"nodes\": " << r.nodes << ", \"events\": " << r.events
            << ", \"pending_peak\": " << r.pending_peak
            << ", \"build_wall_s\": " << r.build_wall_s
            << ", \"run_wall_s\": " << r.run_wall_s
            << ", \"events_per_sec\": " << r.events_per_sec
            << ", \"tps\": " << r.tps << ", \"sim_s\": " << r.elapsed_sim_s
            << ", \"blocks\": " << r.total_blocks
            << ", \"stale\": " << r.stale_blocks << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      std::cerr << "[sim_scale] wrote " << json_path << "\n";
    }
  }

  if (!floors_path.empty()) {
    rpc::Json floors;
    if (!bench::read_floors(floors_path, floors)) return 1;
    bool violated = false;
    if (floors.has("sim_min_events_per_sec")) {
      const double floor = floors["sim_min_events_per_sec"].as_double();
      for (const PointResult& r : results) {
        if (r.events_per_sec < floor) {
          std::cerr << "FLOOR VIOLATED: n=" << r.nodes << " events/sec "
                    << r.events_per_sec << " < " << floor << "\n";
          violated = true;
        }
      }
    }
    if (violated) return 2;
    std::cerr << "[sim_scale] all perf floors met (" << floors_path << ")\n";
  }
  return 0;
}
