#include "checks.h"

#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "common/bytes.h"
#include "state/authstate/merkle_state.h"

namespace perfbench {

using themis::Hash32;
using themis::ledger::TxId;

Violations check_exactly_once(const std::vector<TxId>& acknowledged,
                              const std::vector<TxId>& main_chain) {
  std::unordered_map<TxId, std::uint64_t, themis::Hash32Hasher> seen;
  seen.reserve(main_chain.size());
  for (const TxId& id : main_chain) ++seen[id];
  Violations out;
  std::uint64_t missing = 0, repeated = 0;
  for (const TxId& id : acknowledged) {
    const auto it = seen.find(id);
    if (it == seen.end()) {
      if (missing++ == 0) {
        out.push_back("acknowledged tx " + themis::to_hex(id).substr(0, 16) +
                      " is not on the main chain");
      }
    } else if (it->second != 1) {
      if (repeated++ == 0) {
        out.push_back("tx " + themis::to_hex(id).substr(0, 16) + " appears " +
                      std::to_string(it->second) + " times on the main chain");
      }
    }
  }
  if (missing > 1) {
    out.push_back(std::to_string(missing) +
                  " acknowledged txs missing from the main chain in total");
  }
  if (repeated > 1) {
    out.push_back(std::to_string(repeated) + " txs confirmed more than once");
  }
  return out;
}

Violations check_nodes_agree(const std::vector<NodeView>& nodes,
                             const themis::UInt128& expected_supply) {
  Violations out;
  if (nodes.empty()) return {"no node reported its state"};
  const NodeView& ref = nodes.front();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const NodeView& v = nodes[i];
    if (v.height != ref.height || v.head != ref.head) {
      out.push_back("node " + std::to_string(i) + " head differs from node 0 (" +
                    std::to_string(v.height) + " vs " +
                    std::to_string(ref.height) + ")");
    }
    if (v.state_root != ref.state_root) {
      out.push_back("node " + std::to_string(i) +
                    " state root differs from node 0");
    }
    if (!(v.total_supply == ref.total_supply)) {
      out.push_back("node " + std::to_string(i) +
                    " total supply differs from node 0");
    }
  }
  if (!(ref.total_supply == expected_supply)) {
    out.push_back("total supply " + ref.total_supply.to_decimal() +
                  " != initial supply " + expected_supply.to_decimal());
  }
  return out;
}

Violations check_finality_advanced(std::uint64_t before, std::uint64_t after) {
  if (after > before) return {};
  return {"finalized height did not advance (" + std::to_string(before) +
          " -> " + std::to_string(after) + ")"};
}

Violations check_balance_proof(const themis::rpc::Json& result,
                               themis::ledger::NodeId account) {
  namespace authstate = themis::state::authstate;
  try {
    const themis::rpc::Json& p = result["proof"];
    if (!p["available"].as_bool()) {
      return {"no proof for account " + std::to_string(account)};
    }
    themis::state::Account claimed;
    const auto balance =
        themis::UInt128::from_decimal(result["balance"].as_string());
    if (!balance.has_value()) return {"balance is not a decimal"};
    claimed.balance = *balance;
    claimed.next_nonce = result["next_nonce"].as_u64();
    authstate::AccountProof proof;
    proof.page = static_cast<std::uint32_t>(p["page"].as_u64());
    proof.page_count = static_cast<std::uint32_t>(p["page_count"].as_u64());
    proof.page_bytes = themis::from_hex(p["page_bytes"].as_string());
    for (const themis::rpc::Json& step : p["steps"].as_array()) {
      proof.steps.push_back(
          {themis::hash_from_hex(step["sibling"].as_string()),
           step["left"].as_bool()});
    }
    const Hash32 root = themis::hash_from_hex(result["state_root"].as_string());
    if (!authstate::verify_account_proof(root, account, claimed, proof)) {
      return {"balance proof for account " + std::to_string(account) +
              " does not verify"};
    }
  } catch (const std::exception& e) {
    return {std::string("malformed proof reply: ") + e.what()};
  }
  return {};
}

std::string to_string(const SimDigest& d) {
  std::ostringstream out;
  out << std::setprecision(17) << "events=" << d.events << " tps=" << d.tps << " blocks=" << d.blocks
      << " stale=" << d.stale << " producers=" << d.producers;
  return out.str();
}

Violations check_sim_repeats(const std::vector<SimDigest>& reps,
                             const std::optional<SimDigest>& recorded) {
  Violations out;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!(reps[i] == reps[0])) {
      out.push_back("repetition " + std::to_string(i) + " differs: " +
                    to_string(reps[i]) + " vs " + to_string(reps[0]));
    }
  }
  if (recorded.has_value() && !reps.empty() && !(reps[0] == *recorded)) {
    out.push_back("outputs differ from the recorded digest: " +
                  to_string(reps[0]) + " vs " + to_string(*recorded));
  }
  return out;
}

}  // namespace perfbench
