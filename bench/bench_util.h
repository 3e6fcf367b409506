// Shared helpers for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --quick           smaller n / fewer epochs (CI-friendly)
//   --csv             emit CSV instead of an aligned table
//   --seed=<u64>      override the experiment base seed
//   --trials <N>      independent trials per sweep point (also --trials=<N>;
//                     0/absent = the driver's historical default)
//   --threads <N>     worker threads for the trial runner (also --threads=<N>;
//                     0 = one per hardware thread, default 1)
//   --trace=<path>    write a JSONL event trace of the base-seed run
//   --report[=<path>] print an end-of-run counters/histograms report
//                     (stderr without a path, so stdout stays diffable)
// and prints the paper's rows/series for one figure or table.
//
// Flag parsing is centralised in ArgParser so a new flag lands in every
// driver at once; drivers with extra switches (e.g. fig8's --ablation) reuse
// the same parser instead of hand-rolling strcmp loops.
//
// Per-trial seeding follows the trial-runner contract (sim/trial_runner.h):
// trial 0 uses the base seed itself, so default runs reproduce the
// historical single-seed outputs; results are bit-identical for any
// --threads value.  Observability rides the same contract: the bundle is
// attached to point 0 / trial 0 only — the base-seed run — so tracing never
// races across workers and never changes any trial's results.  Data goes to
// stdout; the wall-clock footer, trace-file notice and (pathless) report go
// to stderr so outputs can be diffed across thread counts and with tracing
// on or off.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "metrics/aggregate.h"
#include "metrics/table.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "sim/trial_runner.h"

namespace themis::bench {

/// Minimal argv scanner shared by every bench driver.  Accepts GNU-ish
/// spellings: bare switches ("--quick"), values as "--flag=V" or "--flag V",
/// and switches with an optional value ("--report" / "--report=path").
///
/// Every name a driver queries (or registers via permit()) is recorded as
/// recognised; reject_unknown() then turns any leftover `-`-prefixed token
/// into a hard error with a usage hint, so a typo like "--trails 5" fails
/// loudly instead of silently running with defaults.
class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    args_.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True when the bare switch `name` is present.
  bool flag(std::string_view name) const {
    permit(name);
    for (std::string_view arg : args_) {
      if (arg == name) return true;
    }
    return false;
  }

  /// Value of "--name=V" or "--name V"; nullopt when the flag is absent.
  std::optional<std::string_view> value(std::string_view name) const {
    permit(name);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string_view arg = args_[i];
      if (arg.starts_with(name) && arg.size() > name.size() &&
          arg[name.size()] == '=') {
        return arg.substr(name.size() + 1);
      }
      if (arg == name && i + 1 < args_.size()) return args_[i + 1];
    }
    return std::nullopt;
  }

  /// Every value of a repeatable flag ("--peer=a --peer b"), in argv order.
  std::vector<std::string_view> values(std::string_view name) const {
    permit(name);
    std::vector<std::string_view> out;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string_view arg = args_[i];
      if (arg.starts_with(name) && arg.size() > name.size() &&
          arg[name.size()] == '=') {
        out.push_back(arg.substr(name.size() + 1));
      } else if (arg == name && i + 1 < args_.size()) {
        out.push_back(args_[++i]);
      }
    }
    return out;
  }

  /// A switch that may carry a value: "--report" yields an empty view,
  /// "--report=path" yields "path", absence yields nullopt.  Unlike value(),
  /// never consumes the following argument.
  std::optional<std::string_view> flag_or_value(std::string_view name) const {
    permit(name);
    for (std::string_view arg : args_) {
      if (arg == name) return std::string_view{};
      if (arg.starts_with(name) && arg.size() > name.size() &&
          arg[name.size()] == '=') {
        return arg.substr(name.size() + 1);
      }
    }
    return std::nullopt;
  }

  std::uint64_t value_u64(std::string_view name, std::uint64_t fallback) const {
    const auto v = value(name);
    if (!v) return fallback;
    return std::strtoull(std::string(*v).c_str(), nullptr, 10);
  }

  /// Mark `name` as a recognised flag without looking it up (for switches a
  /// driver only reads conditionally, or parses with a second ArgParser).
  void permit(std::string_view name) const {
    for (const std::string& known : recognized_) {
      if (known == name) return;
    }
    recognized_.emplace_back(name);
  }

  /// Hard error (exit 2) on any `-`-prefixed argv token whose name — the
  /// part before any '=' — was never queried or permit()ed.  Tokens consumed
  /// as the value of a "--flag V" spelling are exempt.
  void reject_unknown(std::string_view usage) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string_view arg = args_[i];
      if (!arg.starts_with('-')) continue;
      const std::string_view name = arg.substr(0, arg.find('='));
      bool known = false;
      for (const std::string& candidate : recognized_) {
        if (candidate == name) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::cerr << "error: unknown flag '" << name << "'\n"
                  << "usage: " << usage << "\n";
        std::exit(2);
      }
      // "--flag V": the next token belongs to this flag, never a flag itself.
      if (arg == name && i + 1 < args_.size() &&
          !args_[i + 1].starts_with('-')) {
        ++i;
      }
    }
  }

 private:
  std::vector<std::string_view> args_;
  /// Names queried so far; owned strings so permit() outlives temporaries.
  mutable std::vector<std::string> recognized_;
};

struct BenchArgs {
  bool quick = false;
  bool csv = false;
  std::uint64_t seed = 1;
  std::size_t trials = 0;   ///< 0 = driver default
  std::size_t threads = 1;  ///< 0 = hardware thread count
  std::string trace_path;   ///< empty = no trace
  bool report = false;
  std::string report_path;  ///< empty = report to stderr
  /// Allocated when --trace/--report asked for observation; shared_ptr so
  /// BenchArgs stays copyable (the bundle itself must not move once the
  /// simulation caches pointers into it).
  std::shared_ptr<obs::Observability> observability;

  /// Flags every bench accepts (also the reject_unknown usage hint).
  static constexpr std::string_view kUsage =
      "--quick --csv --seed=<u64> --trials <N> --threads <N> "
      "--trace=<path> --report[=<path>]";

  /// Parse the shared flags.  Drivers with extra switches list them in
  /// `extra_known` (e.g. {"--ablation"}) so the unknown-flag check accepts
  /// them; anything else `-`-prefixed on the command line is a hard error.
  static BenchArgs parse(
      int argc, char** argv,
      std::initializer_list<std::string_view> extra_known = {}) {
    const ArgParser parser(argc, argv);
    for (const std::string_view name : extra_known) parser.permit(name);
    BenchArgs args;
    args.quick = parser.flag("--quick");
    args.csv = parser.flag("--csv");
    args.seed = parser.value_u64("--seed", args.seed);
    args.trials = parser.value_u64("--trials", args.trials);
    args.threads = parser.value_u64("--threads", args.threads);
    if (const auto v = parser.value("--trace")) args.trace_path = *v;
    if (const auto v = parser.flag_or_value("--report")) {
      args.report = true;
      args.report_path = *v;
    }
    if (parser.flag("--help") || parser.flag("-h")) {
      std::cout << "flags: " << kUsage << "\n";
      std::exit(0);
    }
    parser.reject_unknown(kUsage);
    if (!args.trace_path.empty() || args.report) {
      args.observability = std::make_shared<obs::Observability>();
      args.observability->tracer.enable(!args.trace_path.empty());
    }
    return args;
  }

  /// Trials to run, with the driver's historical default when --trials is
  /// absent (1 for single-seed figures, more for the averaged ones).
  std::size_t trials_or(std::size_t fallback) const {
    return trials > 0 ? trials : fallback;
  }

  sim::TrialRunnerOptions runner(std::size_t default_trials = 1) const {
    sim::TrialRunnerOptions options;
    options.trials = trials_or(default_trials);
    options.threads = threads;
    options.observability = observability.get();
    return options;
  }
};

inline void emit(const metrics::Table& table, const BenchArgs& args) {
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Keep glibc malloc from bouncing pages back to the kernel mid-run.  Large-n
/// simulations allocate tens of thousands of per-node trees, queues and
/// policies; with the default thresholds glibc serves the biggest vectors
/// with mmap and trims the heap on every free wave, so steady state degrades
/// into mmap/munmap + page-fault churn (measured ~20% of wall time at
/// n=2000).  Raising both thresholds keeps the memory resident for the whole
/// process; peak RSS is unchanged — the pages were all touched anyway.
inline void retain_heap_pages() {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, 1 << 29);
  mallopt(M_MMAP_THRESHOLD, 1 << 29);
#endif
}

inline void banner(std::string_view title, std::string_view paper_ref) {
  retain_heap_pages();  // every bench driver calls banner() before running
  std::cout << "== " << title << " ==\n"
            << "   reproduces: " << paper_ref << "\n";
}

/// Cell helper: single trial prints the plain value (historical output),
/// several trials print "mean ± 95% CI".
inline std::string cell(const metrics::Summary& summary, int precision = 4) {
  return metrics::format_mean_ci(summary, precision);
}

class WallTimer {
 public:
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Flush the observability outputs a driver asked for: the JSONL trace file
/// and the end-of-run report (stderr, or the --report=<path> file).  A no-op
/// when neither flag was given.
inline void write_observability_outputs(const BenchArgs& args) {
  if (!args.observability) return;
  const obs::Observability& o = *args.observability;
  if (!args.trace_path.empty()) {
    if (o.tracer.write_file(args.trace_path)) {
      std::cerr << "[bench] trace: " << args.trace_path << " ("
                << o.tracer.size() << " events)\n";
    } else {
      std::cerr << "[bench] trace: FAILED to write " << args.trace_path
                << "\n";
    }
  }
  if (args.report) {
    if (args.report_path.empty()) {
      obs::write_report(std::cerr, o);
    } else {
      std::ofstream out(args.report_path);
      if (out) {
        obs::write_report(out, o);
        std::cerr << "[bench] report: " << args.report_path << "\n";
      } else {
        std::cerr << "[bench] report: FAILED to write " << args.report_path
                  << "\n";
      }
    }
  }
}

/// Wall-clock/parallelism footer on stderr (stdout stays diffable across
/// --threads values), plus any requested trace/report outputs.
inline void print_run_footer(const BenchArgs& args, const WallTimer& timer,
                             std::size_t default_trials = 1) {
  const auto options = args.runner(default_trials);
  std::cerr << "[bench] trials/point=" << options.trials
            << " threads=" << options.resolved_threads()
            << " wall=" << timer.seconds() << "s\n";
  write_observability_outputs(args);
}

/// Load the JSON perf-floors file the scale benchmarks gate on
/// (bench/ci_floors.json).  False, after printing why, when `path` cannot be
/// read or parsed.
inline bool read_floors(const std::string& path, Json& floors) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read floors file " << path << "\n";
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    floors = Json::parse(text);
  } catch (const JsonError& e) {
    std::cerr << "error: bad floors JSON: " << e.what() << "\n";
    return false;
  }
  return true;
}

}  // namespace themis::bench
