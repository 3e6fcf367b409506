#include "ledger/txpool.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace themis::ledger {

TxPool::TxPool(std::size_t capacity) : capacity_(capacity) {
  expects(capacity > 0, "pool capacity must be positive");
}

bool TxPool::add(SignedTransaction stx) {
  const TxId id = stx.tx.id();
  if (by_id_.contains(id)) return false;
  // Evict before inserting so the pool never exceeds capacity.
  while (by_id_.size() >= capacity_) {
    erase(by_id_.find(by_seq_.begin()->second));
    if (evicted_counter_ != nullptr) evicted_counter_->inc();
  }
  const std::uint64_t seq = next_seq_++;
  by_sender_[stx.tx.sender()].emplace(stx.tx.nonce(), id);
  by_seq_.emplace(seq, id);
  by_id_.emplace(id, Entry{std::move(stx), seq});
  if (added_counter_ != nullptr) added_counter_->inc();
  return true;
}

bool TxPool::contains(const TxId& id) const { return by_id_.contains(id); }

std::optional<SignedTransaction> TxPool::get(const TxId& id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second.stx;
}

std::vector<Transaction> TxPool::select(
    std::size_t max_count,
    const std::function<bool(const Transaction&)>& admit) const {
  // One cursor per sender chain, heap-ordered by the arrival seq of the
  // chain's current head: senders interleave by arrival, but each sender's
  // transactions surface in nonce order so the ledger's strict-nonce rule can
  // actually admit them back-to-back.
  struct Cursor {
    std::multimap<std::uint64_t, TxId>::const_iterator it;
    std::multimap<std::uint64_t, TxId>::const_iterator end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(by_sender_.size());
  for (const auto& [sender, chain] : by_sender_) {
    cursors.push_back(Cursor{chain.begin(), chain.end()});
  }

  const auto entry_of = [this](const Cursor& c) -> const Entry& {
    return by_id_.at(c.it->second);
  };
  // Min-heap of cursor indices by head seq ("priority"); a fee market would
  // replace the seq key with fee-per-byte.
  const auto heap_cmp = [&](std::size_t a, std::size_t b) {
    return entry_of(cursors[a]).seq > entry_of(cursors[b]).seq;
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(heap_cmp)>
      heap(heap_cmp);
  for (std::size_t i = 0; i < cursors.size(); ++i) heap.push(i);

  std::vector<Transaction> out;
  out.reserve(std::min(max_count, size()));
  while (!heap.empty() && out.size() < max_count) {
    const std::size_t idx = heap.top();
    heap.pop();
    Cursor& cur = cursors[idx];
    const Transaction& tx = entry_of(cur).stx.tx;
    if (!admit || admit(tx)) out.push_back(tx);
    ++cur.it;
    if (cur.it != cur.end) heap.push(idx);
  }
  return out;
}

void TxPool::remove(const std::vector<TxId>& ids) {
  for (const TxId& id : ids) {
    const auto it = by_id_.find(id);
    if (it != by_id_.end()) erase(it);
  }
}

std::size_t TxPool::purge(
    const std::function<bool(const Transaction&)>& stale) {
  std::size_t dropped = 0;
  for (auto it = by_id_.begin(); it != by_id_.end();) {
    if (stale(it->second.stx.tx)) {
      it = erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::vector<TxId> TxPool::ids(std::size_t max_count) const {
  std::vector<TxId> out;
  out.reserve(std::min(max_count, size()));
  for (auto it = by_seq_.begin(); it != by_seq_.end() && out.size() < max_count;
       ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::uint64_t TxPool::next_nonce_hint(NodeId sender,
                                      std::uint64_t state_next) const {
  const auto chain_it = by_sender_.find(sender);
  std::uint64_t next = state_next;
  if (chain_it == by_sender_.end()) return next;
  // The chain is nonce-sorted: walk it from state_next, skipping pending
  // nonces until the first gap.
  for (auto it = chain_it->second.lower_bound(state_next);
       it != chain_it->second.end(); ++it) {
    if (it->first == next) {
      ++next;
    } else if (it->first > next) {
      break;  // gap found
    }
  }
  return next;
}

TxPool::ById::iterator TxPool::erase(ById::iterator it) {
  const Transaction& tx = it->second.stx.tx;
  const auto chain_it = by_sender_.find(tx.sender());
  auto& chain = chain_it->second;
  const auto [lo, hi] = chain.equal_range(tx.nonce());
  for (auto c = lo; c != hi; ++c) {
    if (c->second == it->first) {
      chain.erase(c);
      break;
    }
  }
  if (chain.empty()) by_sender_.erase(chain_it);
  by_seq_.erase(it->second.seq);
  return by_id_.erase(it);
}

}  // namespace themis::ledger
