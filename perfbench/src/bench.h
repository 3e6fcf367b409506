// Shared types of the benchmark program: run options, the result record and
// the metric names every workload reports.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch space for datadirs, snapshots and the span file.
  std::filesystem::path workdir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per correctness violation; any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// End-to-end metrics (reported with --trace 0).
  MetricMap e2e;
  /// Workload-specific end-to-end figures that are printed by name but are
  /// not gated (they do not exist on every workload).
  MetricMap extra;
  /// Per-layer metrics (reported with --trace 1).
  MetricMap layer;
  /// Free-form provenance / parameter lines printed before the result.
  std::map<std::string, std::string> params;

  void violate(std::string what) {
    violations.push_back(std::move(what));
    ++failed;
  }
  void set(MetricMap& m, const std::string& name, double value,
           const std::string& unit, std::uint64_t samples) {
    m[name] = Metric{value, unit, samples};
  }
};

struct MetricName {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, in BENCHMARK.json order.  Every workload reports all
/// of them.
const std::vector<MetricName>& end_to_end_names();
/// Per-layer metrics, in BENCHMARK.json order.  Every traced run reports all
/// of them; a layer the workload leaves idle reads 0.
const std::vector<MetricName>& per_layer_names();

RunResult run_pipeline(const Options& opt);
RunResult run_ledger(const Options& opt);
RunResult run_sim(const Options& opt);
/// The simulator's per-layer figures (one seed, one plain and one profiled
/// repetition, with the determinism check), added to a live workload's
/// traced run: sim-n2000 is not a gated workload (see README.md), so its
/// layers are measured there.
void add_sim_layers(const Options& opt, RunResult& r);

}  // namespace perfbench
