#include "oracles/map_ledger_state.h"

#include "common/check.h"
#include "common/serialize.h"
#include "crypto/merkle.h"
#include "state/transfer.h"

namespace themis::state::oracle {

namespace {

bool is_default(const Account& a) { return a == Account{}; }

}  // namespace

void MapLedgerState::fund(ledger::NodeId account, const UInt128& amount) {
  Account& acct = accounts_[account];
  const bool overflow = acct.balance.add_overflow(amount, acct.balance);
  expects(!overflow, "genesis funding overflows account balance");
}

const Account& MapLedgerState::account(ledger::NodeId id) const {
  static const Account kEmpty{};
  const auto it = accounts_.find(id);
  return it == accounts_.end() ? kEmpty : it->second;
}

UInt128 MapLedgerState::total_supply() const {
  UInt128 total;
  for (const auto& [id, acct] : accounts_) {
    if (total.add_overflow(acct.balance, total)) return UInt128::max();
  }
  return total;
}

TxOutcome MapLedgerState::apply(const ledger::Transaction& tx) {
  Account& sender = accounts_[tx.sender()];
  if (tx.nonce() != sender.next_nonce) return TxOutcome::bad_nonce;

  const std::optional<Transfer> transfer = transfer_of(tx);
  if (!transfer.has_value()) {
    ++sender.next_nonce;
    return TxOutcome::data_only;
  }
  if (transfer->to == ledger::kNoNode) return TxOutcome::unknown_recipient;
  if (sender.balance < transfer->amount) return TxOutcome::insufficient_funds;
  if (transfer->to != tx.sender()) {
    UInt128 credited;
    if (accounts_[transfer->to].balance.add_overflow(transfer->amount,
                                                     credited)) {
      return TxOutcome::overflow;
    }
    accounts_[transfer->to].balance = credited;
    sender.balance -= transfer->amount;
  }
  ++sender.next_nonce;
  return TxOutcome::applied;
}

std::size_t MapLedgerState::apply_block(const ledger::Block& block) {
  std::size_t applied = 0;
  for (const ledger::Transaction& tx : block.transactions()) {
    const TxOutcome outcome = apply(tx);
    if (outcome == TxOutcome::applied || outcome == TxOutcome::data_only) {
      ++applied;
    }
  }
  return applied;
}

void MapLedgerState::apply_delta(const StateDelta& delta) {
  for (const auto& [id, account] : delta.accounts) {
    accounts_[id] = account;
  }
}

Bytes encode_page(const MapLedgerState& state, std::uint32_t page) {
  const auto& accounts = state.accounts();
  const ledger::NodeId first = page * authstate::kAccountsPerPage;
  Writer entries;
  std::uint32_t count = 0;
  for (auto it = accounts.lower_bound(first);
       it != accounts.end() && authstate::page_of(it->first) == page; ++it) {
    if (is_default(it->second)) continue;
    entries.u32(it->first);
    entries.u64(it->second.balance.lo());
    entries.u64(it->second.balance.hi());
    entries.u64(it->second.next_nonce);
    ++count;
  }
  Writer w(8 + entries.size());
  w.varint(count);
  w.raw(entries.buffer());
  return w.take();
}

std::uint32_t page_count_of(const MapLedgerState& state) {
  const auto& accounts = state.accounts();
  for (auto it = accounts.rbegin(); it != accounts.rend(); ++it) {
    if (!is_default(it->second)) return authstate::page_of(it->first) + 1;
  }
  return 0;
}

std::vector<Hash32> page_hashes_of(const MapLedgerState& state) {
  const std::uint32_t count = page_count_of(state);
  std::vector<Hash32> hashes;
  hashes.reserve(count);
  for (std::uint32_t p = 0; p < count; ++p) {
    hashes.push_back(authstate::page_leaf_hash(p, encode_page(state, p)));
  }
  return hashes;
}

Hash32 state_root_of(const MapLedgerState& state) {
  return crypto::merkle_root(page_hashes_of(state));
}

std::optional<authstate::AccountProof> prove_account(const MapLedgerState& state,
                                                     ledger::NodeId id) {
  const std::vector<Hash32> hashes = page_hashes_of(state);
  const std::uint32_t page = authstate::page_of(id);
  if (page >= hashes.size()) return std::nullopt;
  authstate::AccountProof proof;
  proof.page = page;
  proof.page_count = static_cast<std::uint32_t>(hashes.size());
  proof.page_bytes = encode_page(state, page);
  proof.steps = crypto::merkle_prove(hashes, page);
  return proof;
}

}  // namespace themis::state::oracle
