// Minimal threading utilities for fanning independent work across cores:
// simulation trials, and the page and level hashes of a large state root.
//
// The simulator itself stays single-threaded and deterministic; parallelism
// lives strictly *between* trials, each of which owns every piece of mutable
// state it touches (its own net::Simulation, GossipNetwork and Rng streams).
// Determinism therefore never depends on scheduling: threads only decide
// wall-clock time, the per-trial seeds decide the results.  The same holds
// for state hashing (authstate::RootCache): each item writes only its own
// hash slot, so the root is the same on any number of threads.
//
// parallel_for_index / parallel_for_each are the common "N independent
// items, any order" fan-out over an atomic work counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

namespace themis {

/// std::thread::hardware_concurrency() clamped to at least 1 (the standard
/// allows it to return 0 when the count is unknowable).
std::size_t hardware_thread_count();

/// Run fn(i) for every i in [0, n_items) on up to `n_threads` threads
/// (0 = one per hardware thread).  Blocks until every item completes; the
/// first exception thrown by any item is rethrown after the remaining
/// in-flight items finish (unstarted items are skipped).  Item order across
/// threads is unspecified — items must be independent.
template <typename Fn>
void parallel_for_index(std::size_t n_threads, std::size_t n_items, Fn&& fn) {
  if (n_items == 0) return;
  if (n_threads == 0) n_threads = hardware_thread_count();
  n_threads = std::min(n_threads, n_items);
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < n_items; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> workers;
    workers.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      workers.emplace_back([&] {
        for (;;) {
          if (failed.load(std::memory_order_relaxed)) return;
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n_items) return;
          try {
            fn(i);
          } catch (...) {
            const std::scoped_lock lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // jthread destructors join every worker
  if (first_error) std::rethrow_exception(first_error);
}

/// parallel_for_index over a random-access range: fn(items[i]).
template <typename Range, typename Fn>
void parallel_for_each(std::size_t n_threads, Range& items, Fn&& fn) {
  parallel_for_index(n_threads, std::size(items),
                     [&](std::size_t i) { fn(items[i]); });
}

}  // namespace themis
