// perfbench: the repository's one benchmark (see perfbench/README.md).
//
//   perfbench --workload <pipeline-3n|ledger-262k|sim-n2000> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints the run's parameters and every metric by name (unit, samples),
// then, as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when a correctness check failed.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/live/log.h"

namespace perfbench {

const std::vector<MetricName>& end_to_end_names() {
  static const std::vector<MetricName> names = {
      {"confirmed_tps", "tx/s"}, {"confirm_p50_ms", "ms"},
      {"confirm_p90_ms", "ms"},  {"cpu_us_per_tx", "us"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"}};
  return names;
}

const std::vector<MetricName>& per_layer_names() {
  static const std::vector<MetricName> names = {
      // rpc
      {"rpc.submit_rtt_p50_ms", "ms"}, {"rpc.submit_rtt_p99_ms", "ms"},
      {"rpc.poll_rtt_p50_ms", "ms"}, {"rpc.handle_submit_p50_ms", "ms"},
      {"rpc.handle_poll_p50_ms", "ms"}, {"rpc.handle_proof_p50_ms", "ms"},
      {"rpc.transport_p50_ms", "ms"}, {"rpc.requests", "count"},
      {"rpc.errors", "count"}, {"rpc.json_us_per_tx", "us"},
      // p2p
      {"p2p.admit_batch_p50_ms", "ms"}, {"p2p.admit_batch_p99_ms", "ms"},
      {"p2p.admit_batches", "count"}, {"p2p.txs_per_admit_batch", "tx"},
      {"p2p.verify_stage_p50_ms", "ms"},
      {"p2p.admissions_per_confirmed_tx", "ratio"},
      {"p2p.bytes_out_per_tx", "B"}, {"p2p.tx_inv_redundant_ratio", "ratio"},
      {"p2p.block_inv_redundant_ratio", "ratio"},
      {"p2p.block_propagation_p50_ms", "ms"}, {"p2p.codec_us_per_tx", "us"},
      // crypto
      {"crypto.verify_us_per_sig", "us"},
      {"crypto.verifies_per_confirmed_tx", "ratio"}, {"crypto.hash_ns", "ns"},
      // ledger
      {"ledger.pool_depth_p50", "tx"}, {"ledger.pool_stage_p50_ms", "ms"},
      {"ledger.pool_add_us", "us"}, {"ledger.pool_select_us_per_block", "us"},
      {"ledger.validate_us_per_block", "us"},
      {"ledger.store_append_us_per_block", "us"},
      {"ledger.store_bytes_per_tx", "B"},
      // state
      {"state.exec_us_per_tx", "us"}, {"state.materialize_ms_per_block", "ms"},
      {"state.root_update_ms_per_block", "ms"}, {"state.prove_ms", "ms"},
      {"state.dirty_pages_per_block", "count"},
      {"state.confirm_stage_p50_ms", "ms"},
      // consensus
      {"consensus.block_interval_p50_ms", "ms"},
      {"consensus.txs_per_block_mean", "tx"},
      {"consensus.block_submit_p50_ms", "ms"},
      {"consensus.block_submit_p99_ms", "ms"},
      {"consensus.inclusion_stage_p50_ms", "ms"}, {"consensus.reorgs", "count"},
      {"consensus.blocks_rejected", "count"},
      {"consensus.forkchoice_insert_us", "us"},
      // finality
      {"finality.checkpoint_p50_ms", "ms"}, {"finality.certs", "count"},
      {"finality.votes_rejected", "count"}, {"finality.vote_add_us", "us"},
      // net, sim
      {"net.events", "count"}, {"net.events_per_s", "1/s"},
      {"net.queue_peak_live", "count"}, {"net.gossip_messages", "count"},
      {"net.redundant_push_ratio", "ratio"}, {"sim.slice_wall_p50_ms", "ms"},
      {"sim.slice_wall_max_ms", "ms"}, {"sim.wall_s", "s"},
      // consensus (sim), core, metrics
      {"consensus.sim_accept_ns", "ns"}, {"consensus.sim_update_head_ns", "ns"},
      {"consensus.sim_mine_ns", "ns"}, {"core.geost_insert_us", "us"},
      {"metrics.equality_ms", "ms"},
      // attribution of cpu_us_per_tx, and the tracing overhead
      {"attribution.layer_sum_us_per_tx", "us"},
      {"attribution.cpu_us_per_tx", "us"},
      {"attribution.remainder_us_per_tx", "us"}, {"trace.overhead_pct", "%"}};
  return names;
}

}  // namespace perfbench

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <pipeline-3n|ledger-262k|sim-n2000> "
    "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      std::cerr << "unknown flag " << key << "\n" << kUsage;
      return 2;
    }
  }
  if (argc % 2 == 0 || !have_workload || opt.seconds <= 0 ||
      opt.workdir.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  themis::obs::live::Logger::global().set_level(themis::obs::live::LogLevel::off);
  std::filesystem::create_directories(opt.workdir);

  RunResult result;
  if (opt.workload == "pipeline-3n") {
    result = run_pipeline(opt);
  } else if (opt.workload == "ledger-262k") {
    result = run_ledger(opt);
  } else if (opt.workload == "sim-n2000") {
    result = run_sim(opt);
  } else {
    std::cerr << "unknown workload " << opt.workload << "\n" << kUsage;
    return 2;
  }
  if (result.attempted == 0) result.violate("no operation was attempted");

  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << " seconds " << opt.seconds << " trace " << opt.trace << "\n";
  for (const auto& [key, value] : result.params) {
    std::cout << "param " << key << " = " << value << "\n";
  }
  const auto print = [](const char* kind, const MetricMap& m) {
    for (const auto& [name, metric] : m) {
      std::cout << kind << " " << name << " = " << metric.value << " "
                << metric.unit << " (n=" << metric.samples << ")\n";
    }
  };
  print("e2e", result.e2e);
  print("extra", result.extra);
  print("layer", result.layer);
  std::cout << "extra failed_op_ratio = "
            << static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted)
            << " ratio (n=" << result.attempted << ")\n";
  const auto& names = opt.trace ? per_layer_names() : end_to_end_names();
  const MetricMap& source = opt.trace ? result.layer : result.e2e;
  std::string metrics;
  for (const MetricName& m : names) {
    const auto it = source.find(m.name);
    // A layer the workload leaves idle reads 0 (only per-layer metrics can
    // be missing; every workload fills every end-to-end metric).
    if (it == source.end() && !opt.trace) {
      result.violate("end-to-end metric " + m.name + " was not measured");
    }
    const double value = it == source.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  for (const std::string& v : result.violations) {
    std::cout << "VIOLATION " << v << "\n";
  }
  const bool correct = result.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
