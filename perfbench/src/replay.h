// Single-threaded replay of a live run's recorded inputs through each
// layer's public entry points.  Every figure is a service time measured with
// nothing else running: the work a layer does per unit, free of queueing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ledger/block.h"
#include "ledger/transaction.h"
#include "state/ledger_state.h"
#include "trace.h"

namespace perfbench {

struct ReplayInput {
  /// Signed transfers exactly as clients submitted them.
  std::vector<themis::ledger::SignedTransaction> txs;
  /// The tree root the run started from (genesis or the snapshot block)
  /// and the state after it.
  themis::ledger::BlockPtr root;
  const themis::state::LedgerState* root_state = nullptr;
  /// Main-chain blocks above the root, in height order.
  std::vector<themis::ledger::BlockPtr> blocks;
  std::size_t n_nodes = 1;
  std::uint64_t checkpoint_interval = 16;
  std::size_t max_block_txs = 256;
  /// One submit_txs request body and its reply, as sent and received.
  std::string submit_body;
  std::string submit_reply;
  std::size_t submit_txs = 0;
  std::vector<std::uint32_t> proof_accounts;
  std::filesystem::path workdir;
};

struct ReplayResult {
  double verify_us_per_sig = 0;
  double json_us_per_tx = 0;
  double codec_us_per_tx = 0;
  double hash_ns = 0;
  double pool_add_us = 0;
  double pool_select_us_per_block = 0;
  double validate_us_per_block = 0;
  double store_append_us_per_block = 0;
  double store_bytes_per_tx = 0;
  double exec_us_per_tx = 0;
  double materialize_ms_per_block = 0;
  double root_update_ms_per_block = 0;
  double prove_ms = 0;
  double dirty_pages_per_block = 0;
  double forkchoice_insert_us = 0;
  double vote_add_us = 0;
  /// Validation rejected a recorded main-chain block (a correctness
  /// failure: every node accepted it during the run).
  std::vector<std::string> violations;
};

ReplayResult replay_layers(const ReplayInput& in, Tracer& tracer);

}  // namespace perfbench
