// The std::map account state and page commitment that the copy-on-write
// paged LedgerState replaced, retained as a differential-testing oracle.
//
// Every account lives in one ordered map, every state copy copies the map,
// and the commitment re-encodes and re-hashes every page on each call.  The
// transition rule and the commitment bytes are the ones the paged state must
// reproduce exactly, so tests drive both with the same transactions and
// deltas and compare roots, page hashes, supplies and proofs byte for byte.
// Deliberately simple, not fast; nothing on a hot path may call it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/uint128.h"
#include "ledger/block.h"
#include "state/authstate/merkle_state.h"
#include "state/ledger_state.h"

namespace themis::state::oracle {

class MapLedgerState {
 public:
  void fund(ledger::NodeId account, const UInt128& amount);

  const Account& account(ledger::NodeId id) const;
  const UInt128& balance(ledger::NodeId id) const { return account(id).balance; }
  UInt128 total_supply() const;

  const std::map<ledger::NodeId, Account>& accounts() const { return accounts_; }
  void put(ledger::NodeId id, const Account& account) { accounts_[id] = account; }

  TxOutcome apply(const ledger::Transaction& tx);
  std::size_t apply_block(const ledger::Block& block);
  void apply_delta(const StateDelta& delta);

 private:
  std::map<ledger::NodeId, Account> accounts_;
};

Bytes encode_page(const MapLedgerState& state, std::uint32_t page);
std::uint32_t page_count_of(const MapLedgerState& state);
std::vector<Hash32> page_hashes_of(const MapLedgerState& state);
Hash32 state_root_of(const MapLedgerState& state);
std::optional<authstate::AccountProof> prove_account(const MapLedgerState& state,
                                                     ledger::NodeId id);

}  // namespace themis::state::oracle
