// Differential tests: CalendarQueue against the NaiveEventQueue oracle (the
// pre-calendar binary-heap implementation, kept verbatim), plus the calendar's
// own arena/cancellation invariants.  The two implementations share one
// contract — events fire in (time, schedule-order) order, cancel removes
// exactly the named pending event — so any random interleaving of pushes,
// cancels and pops must produce identical observable behaviour.
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "net/event_queue.h"
#include "oracles/naive_event_queue.h"

namespace themis::net {
namespace {

TEST(EventQueueDifferential, RandomWorkloadMatchesOracle) {
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    CalendarQueue cal;
    NaiveEventQueue naive;
    std::vector<int> cal_fired;
    std::vector<int> naive_fired;
    // Parallel (calendar id, oracle id) pairs; entries may already have fired
    // or been cancelled — cancel must then agree (false) on both sides.
    std::vector<std::pair<EventId, EventId>> ids;
    int marker = 0;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t r = rng.next_below(100);
      if (r < 55 || ids.empty()) {
        // Dense near times (with ties) plus an occasional far-future timer,
        // the simulator's bimodal shape — exercises ring and far tiers.
        std::int64_t t;
        if (rng.next_below(10) == 0) {
          t = static_cast<std::int64_t>(1 + rng.next_below(100)) *
              1'000'000'000;
        } else {
          t = static_cast<std::int64_t>(rng.next_below(2000));
        }
        const int m = marker++;
        const EventId c = cal.push(SimTime::nanos(t),
                                   [m, &cal_fired] { cal_fired.push_back(m); });
        const EventId n = naive.push(
            SimTime::nanos(t), [m, &naive_fired] { naive_fired.push_back(m); });
        ids.emplace_back(c, n);
      } else if (r < 75) {
        const std::size_t k =
            static_cast<std::size_t>(rng.next_below(ids.size()));
        ASSERT_EQ(cal.cancel(ids[k].first), naive.cancel(ids[k].second));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (!cal.empty()) {
        ASSERT_FALSE(naive.empty());
        ASSERT_EQ(cal.peek_time(), naive.peek_time());
        CalendarQueue::Fired cf = cal.pop();
        NaiveEventQueue::Fired nf = naive.pop();
        ASSERT_EQ(cf.time, nf.time);
        cf.fn();
        nf.fn();
        ASSERT_EQ(cal_fired.back(), naive_fired.back());
      }
      ASSERT_EQ(cal.size(), naive.size());
      ASSERT_EQ(cal.empty(), naive.empty());
    }
    while (!cal.empty()) {
      ASSERT_FALSE(naive.empty());
      CalendarQueue::Fired cf = cal.pop();
      NaiveEventQueue::Fired nf = naive.pop();
      ASSERT_EQ(cf.time, nf.time);
      cf.fn();
      nf.fn();
    }
    EXPECT_TRUE(naive.empty());
    EXPECT_EQ(cal_fired, naive_fired);
  }
}

TEST(EventQueueDifferential, EqualTimestampsFireInScheduleOrder) {
  CalendarQueue cal;
  NaiveEventQueue naive;
  std::vector<int> cal_fired;
  std::vector<int> naive_fired;
  for (int i = 0; i < 100; ++i) {
    cal.push(SimTime::nanos(42), [i, &cal_fired] { cal_fired.push_back(i); });
    naive.push(SimTime::nanos(42),
               [i, &naive_fired] { naive_fired.push_back(i); });
  }
  while (!cal.empty()) {
    cal.pop().fn();
    naive.pop().fn();
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cal_fired[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(cal_fired, naive_fired);
}

TEST(EventQueue, StaleIdAfterSlotReuseCannotCancelNewOccupant) {
  CalendarQueue q;
  const EventId a = q.push(SimTime::nanos(100), [] {});
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled by the next push with a bumped generation.
  bool b_fired = false;
  const EventId b = q.push(SimTime::nanos(200), [&b_fired] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));  // stale id: same slot, old generation
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(b));  // fired ids are no longer cancellable either
}

TEST(EventQueue, CancelledFarFutureEventNeverFires) {
  CalendarQueue q;
  bool near_fired = false;
  bool far_fired = false;
  q.push(SimTime::nanos(10), [&near_fired] { near_fired = true; });
  // Far beyond the initial ring span: parks in the far heap.
  const EventId far = q.push(SimTime::seconds(500), [&far_fired] {
    far_fired = true;
  });
  ASSERT_TRUE(q.cancel(far));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(far_fired);
}

TEST(EventQueue, LargeCaptureFallsBackToHeapAndStillRuns) {
  // > EventFn::kInlineCapacity forces the heap path; the callback must still
  // carry its captures intact through slab moves.
  std::array<std::uint64_t, 12> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 31 + 7;
  static_assert(sizeof(payload) > EventFn::kInlineCapacity);
  CalendarQueue q;
  std::uint64_t seen = 0;
  q.push(SimTime::nanos(1), [payload, &seen] {
    for (const std::uint64_t v : payload) seen += v;
  });
  q.pop().fn();
  std::uint64_t expect = 0;
  for (const std::uint64_t v : payload) expect += v;
  EXPECT_EQ(seen, expect);
}

// Satellite regression: a million cancelled events must not grow the arena —
// cancellation reclaims slots eagerly (no lazy-deletion garbage), so memory
// stays bounded by the peak *live* population, not by churn volume.
TEST(EventQueue, MillionCancelsKeepArenaBounded) {
  CalendarQueue q;
  for (int i = 0; i < 1'000'000; ++i) {
    // Alternate ring-near and far-future targets so both tiers reclaim.
    const SimTime t = (i & 1) == 0 ? SimTime::nanos(1000 + i)
                                   : SimTime::seconds(100.0 + i);
    const EventId id = q.push(t, [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  const CalendarQueue::Stats s = q.stats();
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.cancelled, 1'000'000u);
  EXPECT_EQ(s.far_live, 0u);
  // One live event at a time: the arena never needs more than a handful of
  // slots (slack for the far heap's bounded lazy-deletion residue).
  EXPECT_LE(s.arena_slots, 64u);
}

// Regression: a width learned from a sparse population (mining timers,
// milliseconds apart) must be re-learned when a dense interleaved wave
// arrives, or the whole wave shares one bucket and every pop re-sorts it —
// O(n log n) per event.  The oversize-re-sort detector has to trip a
// re-sampling rebuild within a few pops of the degeneration starting.
TEST(EventQueue, WidthRetunesWhenDenseWaveSharesOneBucket) {
  CalendarQueue q;
  Rng rng(5);
  std::size_t scheduled = 0;
  // Sparse phase: teach the calendar a wide width (4 ms gaps).
  for (int i = 0; i < 5000; ++i) {
    q.push(SimTime::nanos(10'000'000 + static_cast<std::int64_t>(i) *
                                           4'000'000),
           [] {});
    ++scheduled;
  }
  // Dense phase: a gossip-wave shape in front of the timers — microsecond
  // spacing, and every pop schedules a near-future replacement that lands in
  // the same (still too-wide) bucket and re-dirties it.
  for (int i = 0; i < 1000; ++i) {
    q.push(SimTime::nanos(static_cast<std::int64_t>(rng.next_below(1'000'000))),
           [] {});
    ++scheduled;
  }
  const std::uint64_t rebuilds_before = q.stats().rebuilds;
  std::size_t fired = 0;
  for (int i = 0; i < 2000; ++i) {
    CalendarQueue::Fired f = q.pop();
    f.fn();
    ++fired;
    q.push(f.time + SimTime::nanos(static_cast<std::int64_t>(
                        1 + rng.next_below(1'000))),
           [] {});
    ++scheduled;
  }
  EXPECT_GT(q.stats().oversize_sorts, 0u);
  EXPECT_GT(q.stats().rebuilds, rebuilds_before)
      << "dense-wave degeneration never triggered a width re-sample";
  while (!q.empty()) {
    q.pop().fn();
    ++fired;
  }
  EXPECT_EQ(fired, scheduled);
}

TEST(EventQueue, OccupancyCountersTrackLifecycle) {
  CalendarQueue q;
  EXPECT_EQ(q.stats().live, 0u);
  const EventId a = q.push(SimTime::nanos(5), [] {});
  q.push(SimTime::nanos(6), [] {});
  CalendarQueue::Stats s = q.stats();
  EXPECT_EQ(s.live, 2u);
  EXPECT_EQ(s.peak_live, 2u);
  EXPECT_EQ(s.arena_slots, 2u);
  ASSERT_TRUE(q.cancel(a));
  s = q.stats();
  EXPECT_EQ(s.live, 1u);
  EXPECT_EQ(s.peak_live, 2u);
  EXPECT_EQ(s.free_slots, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  q.pop().fn();
  s = q.stats();
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.free_slots, 2u);
}

}  // namespace
}  // namespace themis::net
