// Mining backends.
//
// RealMiner grinds nonces with actual double-SHA-256 against the target
// (t_i = T_0 / D_i, §IV-B) — used by examples and tests at low difficulty to
// exercise the genuine puzzle path.
//
// SimMiner samples the *time to find a block* instead: a miner computing h
// hashes/second against difficulty D succeeds per hash with probability 1/D
// (T_0 = T_max convention), so block discovery is a Poisson process with rate
// h/D per second and the waiting time is Exp(h/D).  This is exactly the
// distribution real PoW induces, at none of the CPU cost — it is what makes
// the paper's multi-thousand-block experiments tractable.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "common/sim_time.h"
#include "ledger/block.h"

namespace themis::consensus {

class RealMiner {
 public:
  /// Grind `header.nonce` until sha256d(header) < target_for_difficulty(
  /// header.difficulty), trying at most `max_attempts` nonces starting from
  /// `start_nonce`.  The search never wraps past the end of the nonce
  /// space: it stops after `max_attempts` nonces or at nonce 2^64-1,
  /// whichever comes first.  Returns the solved header, or nullopt on
  /// exhaustion.
  static std::optional<ledger::BlockHeader> mine(ledger::BlockHeader header,
                                                 std::uint64_t start_nonce,
                                                 std::uint64_t max_attempts);
};

class SimMiner {
 public:
  /// Sample the waiting time until a miner with `hash_rate` hashes/second
  /// finds a block at `difficulty` (Exp(hash_rate / difficulty) seconds).
  static SimTime sample_block_time(Rng& rng, double hash_rate, double difficulty);

  /// The Poisson rate (blocks/second) underlying sample_block_time.
  static double block_rate(double hash_rate, double difficulty);
};

}  // namespace themis::consensus
