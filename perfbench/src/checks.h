// Correctness checks every benchmark run applies to the program's outputs.
//
// Each check is a pure function of recorded outputs and returns one message
// per violation (empty = pass), so the benchmark's tests can feed each one a
// tampered input and confirm that it fires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/uint128.h"
#include "ledger/types.h"
#include "rpc/json.h"

namespace perfbench {

using Violations = std::vector<std::string>;

/// Every acknowledged transaction appears exactly once among the
/// transaction ids of the main chain.
Violations check_exactly_once(const std::vector<themis::ledger::TxId>& acknowledged,
                              const std::vector<themis::ledger::TxId>& main_chain);

/// What one node reports once load has stopped.
struct NodeView {
  std::uint64_t height = 0;
  themis::ledger::BlockHash head{};
  themis::Hash32 state_root{};
  themis::UInt128 total_supply;
};

/// All nodes sit at one head with one state root and one total supply, and
/// that supply equals `expected_supply` (genesis or snapshot supply).
Violations check_nodes_agree(const std::vector<NodeView>& nodes,
                             const themis::UInt128& expected_supply);

/// The finalized height advanced during the run.
Violations check_finality_advanced(std::uint64_t before, std::uint64_t after);

/// Verify a get_balance {prove:true} result client-side: the proof must
/// establish the claimed balance/nonce of `account` against the reply's
/// state root.
Violations check_balance_proof(const themis::rpc::Json& result,
                               themis::ledger::NodeId account);

/// Outputs of one simulator repetition.
struct SimDigest {
  std::uint64_t events = 0;
  double tps = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t stale = 0;
  /// Hex digest of the main-chain producer sequence.
  std::string producers;
  bool operator==(const SimDigest&) const = default;
};

std::string to_string(const SimDigest& d);

/// Every repetition produced identical outputs, equal to `recorded` when a
/// recorded digest exists for the seed.
Violations check_sim_repeats(const std::vector<SimDigest>& reps,
                             const std::optional<SimDigest>& recorded);

}  // namespace perfbench
