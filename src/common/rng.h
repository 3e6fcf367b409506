// Deterministic pseudo-random number generation for simulations.
//
// Every experiment in this repository must be exactly reproducible from a
// 64-bit seed, so we implement our own generators (splitmix64 for seeding,
// xoshiro256** for the stream) instead of relying on unspecified standard-
// library distributions.  All distribution sampling here is bit-exact across
// platforms (only relying on IEEE-754 doubles).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace themis {

/// splitmix64 step; used to expand a single seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 by Blackman & Vigna, seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double();

  /// Uniform integer in [0, bound) (bound > 0); unbiased via rejection.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given rate (events per unit time); rate > 0.
  double next_exponential(double rate);

  /// Bernoulli trial with success probability p in [0, 1].
  bool next_bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double next_gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-node streams).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace themis
