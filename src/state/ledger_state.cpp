#include "state/ledger_state.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace themis::state {

namespace {

const Account kEmptyAccount{};

bool is_default(const Account& account) { return account == kEmptyAccount; }

/// The transition rule LedgerState and ScratchState share: `view` reads
/// accounts with account(id) and writes whole post-images with put(id, ...).
/// A failed transaction writes nothing.
template <typename View>
TxOutcome apply_to(View& view, const ledger::Transaction& tx) {
  if (tx.sender() >= kMaxAccounts) return TxOutcome::unknown_sender;
  Account sender = view.account(tx.sender());
  if (tx.nonce() != sender.next_nonce) return TxOutcome::bad_nonce;

  const std::optional<Transfer> transfer = transfer_of(tx);
  if (!transfer.has_value()) {
    ++sender.next_nonce;
    view.put(tx.sender(), sender);
    return TxOutcome::data_only;
  }
  // The cap also covers kNoNode.
  if (transfer->to >= kMaxAccounts) return TxOutcome::unknown_recipient;
  if (sender.balance < transfer->amount) return TxOutcome::insufficient_funds;
  // Self-transfers are a no-op on balances; everyone else's credit must not
  // wrap the 128-bit range.
  if (transfer->to != tx.sender()) {
    Account recipient = view.account(transfer->to);
    if (recipient.balance.add_overflow(transfer->amount, recipient.balance)) {
      return TxOutcome::overflow;
    }
    sender.balance -= transfer->amount;
    view.put(transfer->to, recipient);
  }
  ++sender.next_nonce;
  view.put(tx.sender(), sender);
  return TxOutcome::applied;
}

}  // namespace

std::string_view to_string(TxOutcome outcome) {
  switch (outcome) {
    case TxOutcome::applied: return "applied";
    case TxOutcome::data_only: return "data_only";
    case TxOutcome::bad_nonce: return "bad_nonce";
    case TxOutcome::insufficient_funds: return "insufficient_funds";
    case TxOutcome::unknown_recipient: return "unknown_recipient";
    case TxOutcome::overflow: return "overflow";
    case TxOutcome::unknown_sender: return "unknown_sender";
  }
  return "unknown";
}

void LedgerState::fund(ledger::NodeId account, const UInt128& amount) {
  Account acct = this->account(account);
  const bool overflow = acct.balance.add_overflow(amount, acct.balance);
  expects(!overflow, "genesis funding overflows account balance");
  put(account, acct);
}

const Account& LedgerState::account(ledger::NodeId id) const {
  const AccountPage* p = page(page_of(id));
  return p == nullptr ? kEmptyAccount : p->slots[id % kAccountsPerPage];
}

UInt128 LedgerState::total_supply() const {
  UInt128 total;
  for (const auto& p : pages_) {
    if (p == nullptr) continue;
    for (const Account& acct : p->slots) {
      if (total.add_overflow(acct.balance, total)) return UInt128::max();
    }
  }
  return total;
}

void LedgerState::put(ledger::NodeId id, const Account& account) {
  expects(id < kMaxAccounts, "account id at or above kMaxAccounts");
  const std::uint32_t p = page_of(id);
  const std::uint32_t slot = id % kAccountsPerPage;
  if (this->account(id) == account) return;  // no write, no clone
  if (p >= pages_.size()) pages_.resize(p + 1);
  std::shared_ptr<AccountPage>& entry = pages_[p];
  if (entry == nullptr) {
    entry = std::make_shared<AccountPage>();
  } else if (entry.use_count() > 1) {
    entry = std::make_shared<AccountPage>(*entry);  // shared: clone first
  }
  Account& current = entry->slots[slot];
  entry->live -= is_default(current) ? 0 : 1;
  entry->live += is_default(account) ? 0 : 1;
  current = account;
  if (entry->live > 0) return;
  entry.reset();
  while (!pages_.empty() && pages_.back() == nullptr) pages_.pop_back();
}

TxOutcome LedgerState::apply(const ledger::Transaction& tx) {
  return apply_to(*this, tx);
}

std::size_t LedgerState::apply_block(const ledger::Block& block) {
  std::size_t applied = 0;
  for (const ledger::Transaction& tx : block.transactions()) {
    const TxOutcome outcome = apply(tx);
    if (outcome == TxOutcome::applied || outcome == TxOutcome::data_only) {
      ++applied;
    }
  }
  return applied;
}

void LedgerState::apply_delta(const StateDelta& delta) {
  for (const auto& [id, account] : delta.accounts) put(id, account);
}

std::vector<std::uint32_t> LedgerState::sync_from(const LedgerState& other) {
  std::vector<std::uint32_t> out;
  const std::uint32_t span = std::max(page_count(), other.page_count());
  pages_.resize(span);
  for (std::uint32_t p = 0; p < span; ++p) {
    if (pages_[p].get() == other.page(p)) continue;
    pages_[p] = p < other.page_count() ? other.pages_[p] : nullptr;
    out.push_back(p);
  }
  pages_.resize(other.page_count());
  return out;
}

std::size_t LedgerState::live_accounts() const {
  std::size_t live = 0;
  for (const auto& p : pages_) live += p == nullptr ? 0 : p->live;
  return live;
}

bool LedgerState::operator==(const LedgerState& other) const {
  if (page_count() != other.page_count()) return false;
  for (std::uint32_t p = 0; p < page_count(); ++p) {
    const AccountPage* a = page(p);
    const AccountPage* b = other.page(p);
    if (a == b) continue;
    if (a == nullptr || b == nullptr || a->slots != b->slots) return false;
  }
  return true;
}

const Account& ScratchState::account(ledger::NodeId id) const {
  const auto it = overlay_.find(id);
  return it != overlay_.end() ? it->second : base_->account(id);
}

TxOutcome ScratchState::apply(const ledger::Transaction& tx) {
  const TxOutcome outcome = apply_to(*this, tx);
  if (outcome == TxOutcome::applied || outcome == TxOutcome::data_only) {
    ++applied_;
  }
  return outcome;
}

StateDelta ScratchState::take_delta() {
  StateDelta delta;
  delta.applied = applied_;
  delta.accounts.reserve(overlay_.size());
  for (auto& [id, account] : overlay_) {
    delta.accounts.emplace_back(id, account);
  }
  overlay_.clear();
  return delta;
}

StateManager::StateManager(std::map<ledger::NodeId, UInt128> allocation) {
  for (const auto& [account, amount] : allocation) {
    base_state_.fund(account, amount);
  }
}

void StateManager::cache_touch(CacheEntry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

const LedgerState& StateManager::cache_put(const ledger::BlockHash& block,
                                           LedgerState state) {
  const auto it = cache_.find(block);
  if (it != cache_.end()) {
    it->second.state = std::move(state);
    cache_touch(it->second);
    return it->second.state;
  }
  lru_.push_front(block);
  auto& entry = cache_[block];
  entry.state = std::move(state);
  entry.lru = lru_.begin();
  while (cache_.size() > kMaxCached) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return cache_.at(block).state;
}

const LedgerState* StateManager::held(const ledger::BlockHash& block) const {
  if (floor_.has_value() && floor_->first == block) return &floor_->second;
  return nullptr;
}

const LedgerState& StateManager::state_at(const ledger::BlockTree& tree,
                                          const ledger::BlockHash& block) {
  expects(tree.contains(block), "block not in tree");
  {
    const auto it = cache_.find(block);
    if (it != cache_.end()) {
      cache_touch(it->second);
      return it->second.state;
    }
  }
  if (const LedgerState* state = held(block)) return *state;
  // Walk up to the nearest cached or held ancestor (or the tree root), then
  // replay down onto one working copy; only the requested block is cached.
  std::vector<ledger::BlockHash> pending;
  ledger::BlockHash cursor = block;
  while (!cache_.contains(cursor) && held(cursor) == nullptr &&
         cursor != tree.genesis_hash()) {
    pending.push_back(cursor);
    const auto parent = tree.parent(cursor);
    ensures(parent.has_value(), "non-root block must have a parent");
    cursor = *parent;
  }

  // base_state_ is the state *at* the root block inclusive (the genesis
  // allocation for a genesis-rooted tree — the genesis body is empty — or the
  // restored snapshot for a snapshot-rooted one), so the root body is never
  // replayed.
  const LedgerState* start = &base_state_;
  if (const auto it = cache_.find(cursor); it != cache_.end()) {
    start = &it->second.state;
  } else if (const LedgerState* state = held(cursor)) {
    start = state;
  }
  LedgerState state = *start;
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    // Prefer the validation-time delta: a few account overwrites instead of
    // decoding and replaying the whole body again.
    const auto delta_it = deltas_.find(*it);
    if (delta_it != deltas_.end()) {
      state.apply_delta(delta_it->second);
      continue;
    }
    const ledger::BlockPtr body = tree.body(*it);
    if (body == nullptr) throw BodyUnavailable("block body unavailable");
    state.apply_block(*body);
  }
  return cache_put(block, std::move(state));
}

void StateManager::record_delta(const ledger::BlockHash& block,
                                StateDelta delta) {
  deltas_.insert_or_assign(block, std::move(delta));
}

void StateManager::reset_base(LedgerState base) {
  base_state_ = std::move(base);
  cache_.clear();
  lru_.clear();
  deltas_.clear();
  floor_.reset();
}

void StateManager::set_finalized_floor(const ledger::BlockTree& tree,
                                       const ledger::BlockHash& block) {
  const std::uint64_t height = tree.height(block);
  if (height <= finalized_floor_) return;
  LedgerState state = state_at(tree, block);
  floor_.emplace(block, std::move(state));
  finalized_floor_ = height;
  // Walks from above the floor now stop at it.  A branch forking below it,
  // which fork choice refuses anyway, replays bodies instead.
  std::erase_if(deltas_, [&](const auto& entry) {
    return !tree.contains(entry.first) || tree.height(entry.first) <= height;
  });
}

}  // namespace themis::state
