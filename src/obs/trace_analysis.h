// Summaries over a JSONL trace — the analysis behind the `themis-trace`
// CLI, exposed as a library so tests can assert on it directly.
//
// analyze_trace makes one pass over the stream: it parses a line, folds it
// into the summary and drops it, so memory holds the summary (and the
// mined-at index that propagation needs), never the trace.
//
// The per-epoch sigma_f^2 column is computed by feeding the trace's
// `chain_block` producer sequence into the very same
// metrics::per_epoch_frequency_variance() the experiment harness uses, so a
// trace analysis agrees with PoxExperiment::per_epoch_frequency_variance()
// exactly (bit for bit), not just approximately.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ledger/types.h"
#include "obs/trace_reader.h"

namespace themis::obs {

struct NodeTimeline {
  std::uint64_t mined = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t received = 0;
  std::uint64_t adopted = 0;
  std::uint64_t reorgs = 0;
  std::int64_t first_ns = -1;  ///< first event involving this node (-1 = none)
  std::int64_t last_ns = -1;
};

struct ReorgSummary {
  std::uint64_t count = 0;
  std::uint64_t max_depth = 0;
  double mean_depth = 0.0;
  std::map<std::uint64_t, std::uint64_t> depth_counts;  ///< depth -> reorgs
};

struct PropagationSummary {
  /// (block, receiving node) pairs with both a mined and a received record.
  std::uint64_t samples = 0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

struct TraceSummary {
  // From the run_meta record (empty/0 when absent).
  std::string algorithm;
  std::uint64_t n_nodes = 0;
  std::uint64_t delta = 0;
  std::uint64_t seed = 0;

  std::uint64_t total_events = 0;     ///< well-formed records
  std::uint64_t malformed_lines = 0;  ///< skipped (blank lines do not count)
  std::map<std::string, std::uint64_t> event_counts;  ///< per `ev` kind
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;

  std::map<std::uint32_t, NodeTimeline> nodes;
  ReorgSummary reorgs;
  PropagationSummary propagation;

  std::uint64_t gossip_sends = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t gossip_dup_drops = 0;

  std::uint64_t view_changes = 0;  ///< PBFT traces

  /// Final main chain as recorded by the chain_block snapshot, height order.
  std::vector<ledger::NodeId> chain_producers;
  /// sigma_f^2 per full epoch of `delta` blocks (Eq. 1), exact.
  std::vector<double> per_epoch_sigma_f2;
  /// D_base per epoch from retarget records (empty when not traced).
  std::vector<double> base_difficulty_per_epoch;
};

/// Read `in` as JSONL, one record per line, in a single pass.
TraceSummary analyze_trace(std::istream& in);

/// Render the CLI's text report.
void print_summary(std::ostream& out, const TraceSummary& summary);

}  // namespace themis::obs
