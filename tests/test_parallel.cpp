#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace themis {
namespace {

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_index(8, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForIndex, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_index(1, 20, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(20);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelForIndex, ZeroItemsIsANoop) {
  parallel_for_index(4, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForIndex, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for_index(4, 100,
                         [](std::size_t i) {
                           if (i == 7) throw std::runtime_error("item 7");
                         }),
      std::runtime_error);
}

TEST(ParallelForIndex, StopsSchedulingNewItemsAfterAFailure) {
  // After the throw, remaining unstarted items are skipped — the count of
  // executed items must stay well below the total.
  std::atomic<int> executed{0};
  try {
    parallel_for_index(2, 1'000'000, [&](std::size_t) {
      if (executed.fetch_add(1) == 10) throw std::runtime_error("stop");
      std::this_thread::sleep_for(std::chrono::microseconds(1));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), 1'000'000);
}

TEST(ParallelForEach, MutatesEveryItem) {
  std::vector<int> items(257, 1);
  parallel_for_each(4, items, [](int& x) { x += 1; });
  for (const int x : items) EXPECT_EQ(x, 2);
}

TEST(HardwareThreadCount, IsAtLeastOne) {
  EXPECT_GE(hardware_thread_count(), 1u);
}

}  // namespace
}  // namespace themis
