// Transaction-lifecycle stage tracing for the live node.
//
// Every transaction the node touches is stamped as it crosses the pipeline:
//
//   submitted ──> verified ──> pooled ──> included ──> confirmed
//   (admission    (signature    (TxPool    (entered an   (on the main
//    entry)        checked)      insert)    accepted       chain)
//                                           block)
//
// Each stamp records a monotonic nanosecond timestamp in a bounded per-tx
// table AND feeds the latency since the previous reached stage into a fixed
// per-transition histogram in the live Registry — the per-stage p50/p99 the
// Gosig evaluation methodology calls for, measured on the real pipeline.  A
// submit→confirmed end-to-end histogram rides along.  Not every tx crosses
// every stage on every node (a non-mining node confirms straight from
// `pooled`; a relayed block can include transactions the node never
// admitted): the transition latency is always measured from the LATEST
// earlier stage actually stamped, and a stamp with no predecessor records
// nothing.
//
// Threading: stamps take one shard mutex (16 shards keyed by the tx id's
// first bytes) around a table write of a few words; the histograms behind
// them are wait-free.  The table is bounded — FIFO eviction per shard — so a
// long-lived node cannot leak per-tx state; an evicted transaction simply
// loses its per-tx breakdown (the aggregate histograms already absorbed it).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/bytes.h"
#include "obs/live/registry.h"

namespace themis::obs::live {

enum class TxStage : std::uint8_t {
  submitted = 0,  ///< entered admission (RPC or wire relay)
  verified,       ///< stateless + signature checks passed
  pooled,         ///< inserted into the TxPool
  included,       ///< carried by a block accepted into the tree
  confirmed,      ///< confirmed on the main chain
};
inline constexpr std::size_t kTxStageCount = 5;

std::string_view to_string(TxStage stage);

class StageTracker {
 public:
  /// Registers the per-transition histograms in `registry` (names
  /// themis_tx_stage_<stage>_seconds + themis_tx_e2e_seconds).  `capacity`
  /// bounds the per-tx table; beyond it the oldest entries are evicted.
  explicit StageTracker(Registry& registry, std::size_t capacity = 1 << 16);

  /// Stamp `id` at `stage` now.  Records the latency from the latest earlier
  /// stamped stage into that transition's histogram; re-stamps of an
  /// already-reached stage are ignored (first arrival wins — e.g. a tx
  /// re-included after a reorg keeps its original inclusion time).
  void stamp(const Hash32& id, TxStage stage);

  /// Nanosecond stamps per stage (0 = never reached), monotonic clock.
  using Stamps = std::array<std::uint64_t, kTxStageCount>;
  std::optional<Stamps> stamps(const Hash32& id) const;

  /// Total stamps recorded (diagnostic; relaxed).
  std::uint64_t stamped() const { return stamped_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash32, Stamps, Hash32Hasher> by_id;
    std::deque<Hash32> fifo;  ///< insertion order, for eviction
  };
  Shard& shard_for(const Hash32& id) {
    return shards_[id[0] & (kShards - 1)];
  }
  const Shard& shard_for(const Hash32& id) const {
    return shards_[id[0] & (kShards - 1)];
  }

  std::size_t per_shard_capacity_;
  std::array<Shard, kShards> shards_;
  /// transition_[s] measures (latest earlier stage) -> s; [0] unused.
  std::array<Histogram*, kTxStageCount> transition_{};
  Histogram* end_to_end_ = nullptr;
  std::atomic<std::uint64_t> stamped_{0};
};

}  // namespace themis::obs::live
