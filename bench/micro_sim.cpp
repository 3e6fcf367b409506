// Microbenchmarks for the discrete-event simulator core (google-benchmark):
// schedule/fire throughput, cancel/reschedule churn (the mining-restart
// pattern), and a gossip-shaped burst workload.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "net/event_queue.h"
#include "oracles/naive_event_queue.h"
#include "net/simulation.h"

namespace {

using namespace themis;

/// Schedule `n` events at pseudo-random offsets, drain them all.  The
/// canonical schedule/fire hot loop.
void BM_SimScheduleFire(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::Simulation sim;
    Rng rng(42);
    for (int i = 0; i < n; ++i) {
      sim.schedule_after(SimTime::nanos(static_cast<std::int64_t>(
                             rng.next_below(1'000'000'000))),
                         [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimScheduleFire)->Arg(10'000)->Arg(100'000);

/// The mining-restart pattern: a standing population of far-future events,
/// each repeatedly cancelled and rescheduled before it can fire.
void BM_SimCancelReschedule(benchmark::State& state) {
  const int population = 1'000;
  const int churn = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::Simulation sim;
    Rng rng(7);
    std::vector<net::EventId> ids(population);
    for (int i = 0; i < population; ++i) {
      ids[i] = sim.schedule_after(
          SimTime::seconds(1.0 + static_cast<double>(i)), [] {});
    }
    for (int i = 0; i < churn; ++i) {
      const std::size_t k = static_cast<std::size_t>(rng.next_below(population));
      sim.cancel(ids[k]);
      ids[k] = sim.schedule_after(
          SimTime::seconds(1.0 + rng.next_double() * 1000.0), [] {});
    }
    benchmark::DoNotOptimize(sim.pending());
  }
  state.SetItemsProcessed(state.iterations() * churn);
}
BENCHMARK(BM_SimCancelReschedule)->Arg(100'000);

/// Gossip-shaped load: every fired event fans out to `fanout` new events a
/// short delay ahead (message relays), until a budget is exhausted.
void BM_SimFanoutCascade(benchmark::State& state) {
  const std::uint64_t budget = static_cast<std::uint64_t>(state.range(0));
  const int fanout = 8;
  for (auto _ : state) {
    net::Simulation sim;
    Rng rng(9);
    std::uint64_t remaining = budget;
    std::function<void()> relay = [&] {
      for (int i = 0; i < fanout && remaining > 0; ++i, --remaining) {
        sim.schedule_after(
            SimTime::micros(static_cast<std::int64_t>(rng.next_below(200'000))),
            [&] { relay(); });
      }
    };
    sim.schedule_after(SimTime::zero(), [&] { relay(); });
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * budget);
}
BENCHMARK(BM_SimFanoutCascade)->Arg(100'000);

// ---- CalendarQueue vs NaiveEventQueue A/B -----------------------------------
//
// Same workload through both queue implementations, with the capture size the
// gossip fast path actually carries (~40 bytes: endpoints plus a shared
// message pointer).  That size is what separates the two designs: it fits
// EventFn's inline storage but overflows std::function's, so the naive queue
// pays a heap allocation per event on top of the O(log n) sift and the
// live-set hashing.

/// Bulk load n events at random offsets, then drain — the worst case for
/// calendar locality (random-order inserts at full occupancy).
template <typename Queue>
void queue_schedule_fire(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    Queue q;
    Rng rng(42);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t a = rng.next_u64();
      const std::uint64_t b = rng.next_u64();
      q.push(SimTime::nanos(static_cast<std::int64_t>(
                 rng.next_below(1'000'000'000))),
             [a, b, i, &sink] { sink += a ^ b ^ static_cast<std::uint64_t>(i); });
    }
    while (!q.empty()) {
      auto fired = q.pop();
      fired.fn();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_CalendarQueueScheduleFire(benchmark::State& state) {
  queue_schedule_fire<net::CalendarQueue>(state);
}
void BM_NaiveQueueScheduleFire(benchmark::State& state) {
  queue_schedule_fire<net::NaiveEventQueue>(state);
}
BENCHMARK(BM_CalendarQueueScheduleFire)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK(BM_NaiveQueueScheduleFire)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

/// Steady state: a standing population of range(0) events; every fired event
/// schedules one replacement a short random delay ahead — the shape of a live
/// simulation, and the shape where the heap's O(log n) sift (cache-missing a
/// random path through a huge array) separates from the calendar's O(1)
/// bucket append.  Building the standing population is excluded from timing.
template <typename Queue>
void queue_steady_state(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  const std::uint64_t budget = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      Queue q;
      Rng rng(7);
      for (int i = 0; i < population; ++i) {
        const std::uint64_t a = rng.next_u64();
        const std::uint64_t b = rng.next_u64();
        q.push(
            SimTime::micros(static_cast<std::int64_t>(rng.next_below(200'000))),
            [a, b, i, &sink] { sink += a ^ b ^ static_cast<std::uint64_t>(i); });
      }
      state.ResumeTiming();
      for (std::uint64_t done = 0; done < budget; ++done) {
        auto fired = q.pop();
        fired.fn();
        const std::uint64_t a = rng.next_u64();
        const std::uint64_t b = rng.next_u64();
        q.push(fired.time + SimTime::micros(static_cast<std::int64_t>(
                                rng.next_below(200'000))),
               [a, b, done, &sink] { sink += a ^ b ^ done; });
      }
      benchmark::DoNotOptimize(sink);
      state.PauseTiming();
    }  // queue teardown outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * budget);
}
void BM_CalendarQueueSteadyState(benchmark::State& state) {
  queue_steady_state<net::CalendarQueue>(state);
}
void BM_NaiveQueueSteadyState(benchmark::State& state) {
  queue_steady_state<net::NaiveEventQueue>(state);
}
BENCHMARK(BM_CalendarQueueSteadyState)
    ->Args({4096, 100'000})
    ->Args({100'000, 1'000'000})
    ->Args({1'000'000, 1'000'000});
BENCHMARK(BM_NaiveQueueSteadyState)
    ->Args({4096, 100'000})
    ->Args({100'000, 1'000'000})
    ->Args({1'000'000, 1'000'000});

}  // namespace
