#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace themis {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& limb : state_) limb = splitmix64(s);
  // xoshiro's all-zero state is invalid; splitmix64 cannot produce four zero
  // outputs from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  expects(bound > 0, "bound must be positive");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
  expects(lo <= hi, "empty range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : next_below(span));
}

double Rng::next_exponential(double rate) {
  expects(rate > 0.0, "rate must be positive");
  // -log(1 - U) with U in [0, 1); 1-U is in (0, 1] so log() is finite.
  return -std::log1p(-next_double()) / rate;
}

bool Rng::next_bernoulli(double p) {
  expects(p >= 0.0 && p <= 1.0, "probability must lie in [0, 1]");
  return next_double() < p;
}

double Rng::next_gaussian() {
  // Box-Muller; draw u1 from (0, 1].
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace themis
