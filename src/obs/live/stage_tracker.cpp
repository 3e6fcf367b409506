#include "obs/live/stage_tracker.h"

#include <algorithm>

namespace themis::obs::live {

std::string_view to_string(TxStage stage) {
  switch (stage) {
    case TxStage::submitted: return "submitted";
    case TxStage::verified: return "verified";
    case TxStage::pooled: return "pooled";
    case TxStage::included: return "included";
    case TxStage::confirmed: return "confirmed";
  }
  return "unknown";
}

StageTracker::StageTracker(Registry& registry, std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  transition_[static_cast<std::size_t>(TxStage::verified)] =
      &registry.histogram(
          "themis_tx_stage_verify_seconds",
          "Admission latency: submit to signature-verified.");
  transition_[static_cast<std::size_t>(TxStage::pooled)] = &registry.histogram(
      "themis_tx_stage_pool_seconds",
      "Admission latency: signature-verified to pool insert.");
  transition_[static_cast<std::size_t>(TxStage::included)] =
      &registry.histogram(
          "themis_tx_stage_inclusion_seconds",
          "Pool wait: pool insert to inclusion in an accepted block.");
  transition_[static_cast<std::size_t>(TxStage::confirmed)] =
      &registry.histogram(
          "themis_tx_stage_confirm_seconds",
          "Confirmation latency from the latest earlier stage reached.");
  end_to_end_ = &registry.histogram(
      "themis_tx_e2e_seconds",
      "End-to-end transaction latency: submit to main-chain confirmation.");
}

void StageTracker::stamp(const Hash32& id, TxStage stage,
                         std::uint64_t at_ns) {
  const auto s = static_cast<std::size_t>(stage);
  auto [it, inserted] = by_id_.try_emplace(id);
  if (inserted) {
    fifo_.push_back(id);
    // The new entry is the newest, so with capacity >= 1 it is never the
    // one evicted and `it` stays valid.
    if (fifo_.size() > capacity_) {
      by_id_.erase(fifo_.front());
      fifo_.pop_front();
    }
  }
  Stamps& stamps = it->second;
  if (stamps[s] != 0) return;  // first arrival wins
  // Latest earlier stage actually reached, if any.
  std::size_t prev = s;
  while (prev > 0 && stamps[prev - 1] == 0) --prev;
  if (prev == 0) {
    stamps[s] = at_ns;
    return;
  }
  const std::uint64_t from = stamps[prev - 1];
  const std::uint64_t at = std::max(at_ns, from);
  stamps[s] = at;
  transition_[s]->record_ns(at - from);
  const std::uint64_t submitted =
      stamps[static_cast<std::size_t>(TxStage::submitted)];
  if (stage == TxStage::confirmed && submitted != 0 && at > submitted) {
    end_to_end_->record_ns(at - submitted);
  }
}

std::optional<StageTracker::Stamps> StageTracker::stamps(
    const Hash32& id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

}  // namespace themis::obs::live
