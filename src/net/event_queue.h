// Event queues for the discrete-event simulator.
//
// The simulator fires events in (time, sequence) order: among equal
// timestamps, schedule order wins, which is what makes every run
// bit-reproducible for a fixed seed.  Two implementations share that
// contract:
//
//  * CalendarQueue — the production queue.  A bucketed calendar (R. Brown,
//    CACM 1988) with power-of-two bucket widths: an event at time t lives in
//    bucket (t >> width_shift) & (n_buckets - 1), buckets are kept sorted, and
//    a cursor sweeps the ring one bucket-width window at a time, so push and
//    pop are O(1) amortized at the event densities simulations produce
//    (vs O(log n) sift + hashing for the binary-heap version).  Simulation
//    timestamps are sharply bimodal — a dense wave of message deliveries
//    within the next propagation delay, plus sparse mining timers seconds
//    out — so events beyond the ring's span go to a small "far" binary heap
//    of plain (time, seq, slot) triples and migrate into the ring when the
//    cursor's window reaches them.  Event callbacks live in a slab arena
//    with a freelist — steady-state scheduling allocates nothing — and
//    cancellation reclaims the slot eagerly (O(bucket) in the ring, O(1) in
//    the far heap): no lazy-deletion garbage, pending() never drifts.
//  * the original std::priority_queue + lazy-deletion live-set
//    implementation, which lives in tests/oracles/naive_event_queue.h as
//    the oracle for differential tests and the microbenchmark baseline.
//
// EventIds encode (generation << 32) | arena slot.  Generations start at 1
// and skip 0 on wrap, so no valid id is ever 0 (callers use 0 as a "no event"
// sentinel) and a stale id held across slot reuse can neither cancel the new
// occupant nor be reported as live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"

namespace themis::net {

using EventId = std::uint64_t;

/// Move-only callable with 64 bytes of inline storage.  The simulator's hot
/// paths (gossip deliveries, mining timers) capture a handful of words, so
/// steady-state scheduling never touches the heap; larger captures fall back
/// to a single allocation, like std::function.
class EventFn {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    // Null function pointers / empty std::functions stay "empty" so callers'
    // null-callback preconditions keep firing.
    if constexpr (requires { f == nullptr; }) {
      if (f == nullptr) return;
    }
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_))
          Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    expects(ops_ != nullptr, "invoking an empty EventFn");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst from src, then destroy src's residue.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { static_cast<Fn*>(s)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) { delete *static_cast<Fn**>(s); }};

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// Bucketed calendar queue with an arena-pooled event slab.  Not a template:
/// the one payload the simulator needs is an EventFn keyed by SimTime.
class CalendarQueue {
 public:
  CalendarQueue();
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  /// Insert; returns a non-zero id usable with cancel().
  EventId push(SimTime time, EventFn fn);

  /// Eagerly remove a pending event and reclaim its arena slot.  Returns
  /// false (and does nothing) for fired, already-cancelled or unknown ids —
  /// generation stamps make slot reuse safe.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Timestamp of the next event (queue must be non-empty).  May advance the
  /// internal cursor, never changes the contents.
  SimTime peek_time();

  struct Fired {
    SimTime time;
    EventFn fn;
  };
  /// Remove and return the earliest (time, sequence) event (non-empty).
  Fired pop();

  /// Occupancy / compaction counters (cheap, always on).
  struct Stats {
    std::size_t live = 0;            ///< pending events
    std::size_t peak_live = 0;       ///< high-water mark of `live`
    std::size_t bucket_count = 0;    ///< current calendar size (power of two)
    int width_shift = 0;             ///< bucket width = 1 << width_shift ns
    std::size_t arena_slots = 0;     ///< slab capacity (== live + free_slots)
    std::size_t free_slots = 0;      ///< reclaimed slots awaiting reuse
    std::uint64_t rebuilds = 0;      ///< calendar resizes (density triggers)
    std::uint64_t cancelled = 0;     ///< eager cancellations reclaimed
    std::uint64_t direct_searches = 0;  ///< sparse-queue cursor resets
    std::size_t far_live = 0;        ///< events parked in the far heap
    std::uint64_t far_migrations = 0;   ///< far-heap events moved into the ring
    std::uint64_t oversize_sorts = 0;   ///< lazy sorts over oversized buckets
  };
  Stats stats() const;

 private:
  struct Entry {
    std::int64_t time;   // nanoseconds
    std::uint64_t seq;   // FIFO tie-break among equal times
    std::uint32_t slot;  // arena index
  };
  /// One calendar bucket: entries[head..] are pending, entries[..head] were
  /// fired (the prefix is reclaimed when the bucket drains — no per-pop
  /// erase).  Pushes append in O(1); the bucket is sorted lazily, once, when
  /// the cursor's window reaches it (`dirty`), so a burst landing in a single
  /// bucket costs O(m log m) instead of O(m²) sorted inserts.
  struct Bucket {
    std::vector<Entry> entries;
    std::uint32_t head = 0;
    bool dirty = false;

    bool drained() const { return head == entries.size(); }
    const Entry& front() const { return entries[head]; }
    void reset() {
      entries.clear();  // keeps capacity: steady state re-mallocs nothing
      head = 0;
      dirty = false;
    }
  };
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    /// Ring bucket index, kFarBucket for far-heap residents, kFreeBucket
    /// when the slot is free.
    std::uint32_t bucket = kFreeBucket;
    std::uint32_t next_free = kNoFree;
  };
  static constexpr std::uint32_t kFreeBucket = UINT32_MAX;
  static constexpr std::uint32_t kFarBucket = UINT32_MAX - 1;
  static constexpr std::uint32_t kNoFree = UINT32_MAX;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr int kMinWidthShift = 10;  // 1 us
  static constexpr int kMaxWidthShift = 36;  // ~69 s
  static constexpr int kInitialWidthShift = 21;  // ~2 ms
  /// Width sampling looks at the soonest this-many entries (see
  /// pick_width_shift); rebuild sorts only that prefix.
  static constexpr std::size_t kWidthSample = 4096;
  /// Slab chunk: 4096 slots.  Chunks are allocated once and never move, so
  /// growing the arena relocates no EventFn and invalidates no Slot pointer.
  static constexpr std::uint32_t kSlabShift = 12;
  static constexpr std::uint32_t kSlabChunk = 1u << kSlabShift;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::size_t bucket_index(std::int64_t t) const {
    return (static_cast<std::uint64_t>(t) >> width_shift_) &
           (buckets_.size() - 1);
  }
  std::int64_t bucket_width() const {
    return std::int64_t{1} << width_shift_;
  }
  std::int64_t window_lower() const { return window_upper_ - bucket_width(); }
  /// One-lap horizon: events at or beyond this go to the far heap, so a ring
  /// bucket never mixes events from different laps.
  std::int64_t ring_limit() const;
  void set_cursor(std::int64_t t);

  std::uint32_t allocate_slot();
  void release_slot(std::uint32_t slot);
  /// Append to a bucket, marking it dirty only when the append breaks the
  /// existing (time, seq) order.
  static void bucket_push(Bucket& bucket, Entry e);
  /// Sort a dirty bucket's pending suffix; cheap no-op otherwise.  Counts
  /// oversized sorts — the signature of a too-wide bucket width (a whole
  /// delivery wave in one window, re-sorted every pop), which trips a
  /// re-sampling rebuild in pop().
  void ensure_sorted(Bucket& bucket);
  /// A lazy sort over more pending entries than this is "oversized": fine
  /// once (a same-window burst), degenerate when it happens every pop.
  static constexpr std::size_t kOversizeSort = 64;

  /// Min-heap order for the far tier: later (time, seq) sinks.
  static bool far_later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  /// Live far-heap population (excludes lazily-deleted residue).
  std::size_t far_live() const { return far_.size() - far_dead_; }
  std::size_t ring_live() const { return live_ - far_live(); }
  /// True when `e`'s slot no longer holds that far event (cancelled residue).
  bool far_stale(const Entry& e) const {
    const Slot& s = slot_ref(e.slot);
    return s.bucket != kFarBucket || s.seq != e.seq;
  }
  /// Earliest live far entry, skimming cancelled residue; null when none.
  const Entry* far_top();
  void far_pop_top();
  /// Drop cancelled residue once it outnumbers the live far population —
  /// keeps far memory at O(live) despite lazy deletion.
  void compact_far();
  /// Move far events whose time has entered the cursor's window into the
  /// ring.  Call before examining a window; keeps the cursor invariant
  /// (no live event before window_lower) across both tiers.
  void migrate_due();

  /// The earliest live entry; advances the cursor to its bucket (sorting it
  /// if dirty).  Requires live_ > 0.  The returned reference is the front of
  /// buckets_[cur_].
  const Entry& find_min();
  /// Scan every bucket (and the far heap) for the global minimum and park
  /// the cursor there.  O(bucket_count + dirty entries); the sparse-ring
  /// fallback.
  void direct_search();

  void maybe_grow();
  /// Gather both tiers, re-sample the bucket width from the soonest events,
  /// re-bucket everything within the new one-lap horizon into
  /// `new_bucket_count` buckets, rebuild the far heap from the remainder,
  /// and reset the cursor to the global minimum.
  void rebuild(std::size_t new_bucket_count);
  int pick_width_shift(const std::vector<Entry>& sorted_entries);

  Slot& slot_ref(std::uint32_t i) {
    return slab_[i >> kSlabShift][i & (kSlabChunk - 1)];
  }
  const Slot& slot_ref(std::uint32_t i) const {
    return slab_[i >> kSlabShift][i & (kSlabChunk - 1)];
  }

  std::vector<Bucket> buckets_;
  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::uint32_t slot_count_ = 0;  ///< slots ever created (all chunks)
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t next_seq_ = 1;
  int width_shift_ = kInitialWidthShift;
  std::size_t cur_ = 0;               ///< bucket the cursor is parked on
  std::int64_t window_upper_ = 0;     ///< exclusive upper edge of cur_'s window
  std::vector<Entry> far_;            ///< min-heap of beyond-horizon events
  std::size_t far_dead_ = 0;          ///< cancelled residue still in far_
  std::uint64_t pops_since_rebuild_ = 0;
  std::uint64_t migrations_since_rebuild_ = 0;
  std::uint64_t oversize_sorts_since_rebuild_ = 0;
  std::uint64_t oversize_sorts_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t direct_searches_ = 0;
  std::uint64_t migrations_ = 0;
  std::vector<Entry> scratch_;        ///< rebuild workspace (kept allocated)
  std::vector<std::int64_t> gap_scratch_;  ///< width-sampling workspace
};

}  // namespace themis::net
