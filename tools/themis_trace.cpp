// themis-trace: analyze a JSONL event trace written by the simulator's
// --trace=<path> flag.
//
//   themis-trace <trace.jsonl>            full summary (timelines, reorgs,
//                                         propagation percentiles, sigma_f^2)
//   themis-trace --events <trace.jsonl>   per-kind event counts only
//   themis-trace - < trace.jsonl          read from stdin
//
// The sigma_f^2 column is computed by the same metrics code the experiment
// harness uses, so it matches PoxExperiment::per_epoch_frequency_variance()
// exactly.  Both modes read the trace in one streaming pass (see
// obs/trace_analysis.h), so memory does not grow with the trace's length.
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "obs/trace_analysis.h"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: themis-trace [--events] <trace.jsonl | ->\n"
         "  --events  print per-kind event counts instead of the full summary\n"
         "  -         read the trace from stdin\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace themis;

  bool events_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--events") {
      events_only = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && (arg == "-" || arg[0] != '-')) {
      if (!path.empty()) return usage(std::cerr, 2);
      path = arg;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    }
  }
  if (path.empty()) return usage(std::cerr, 2);

  obs::TraceSummary summary;
  if (path == "-") {
    summary = obs::analyze_trace(std::cin);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "themis-trace: cannot open " << path << "\n";
      return 1;
    }
    summary = obs::analyze_trace(in);
  }
  if (summary.malformed_lines > 0) {
    std::cerr << "themis-trace: skipped " << summary.malformed_lines
              << " malformed line(s)\n";
  }
  if (summary.total_events == 0) {
    std::cerr << "themis-trace: no events in " << path << "\n";
    return 1;
  }

  if (events_only) {
    for (const auto& [kind, count] : summary.event_counts) {
      std::cout << kind << ": " << count << "\n";
    }
    std::cout << "total: " << summary.total_events << "\n";
    return 0;
  }
  obs::print_summary(std::cout, summary);
  return 0;
}
