#include "consensus/miner.h"

#include <cmath>

#include "common/check.h"
#include "common/uint256.h"

namespace themis::consensus {

std::optional<ledger::BlockHeader> RealMiner::mine(ledger::BlockHeader header,
                                                   std::uint64_t start_nonce,
                                                   std::uint64_t max_attempts) {
  if (max_attempts == 0) return std::nullopt;
  const UInt256 target = target_for_difficulty(header.difficulty);
  // Clamp the attempt window to the end of the nonce space: incrementing
  // past 2^64-1 would wrap to 0 and silently re-search nonces outside the
  // documented [start_nonce, start_nonce + max_attempts) window.
  const std::uint64_t available = UINT64_MAX - start_nonce;  // after start
  const std::uint64_t attempts =
      max_attempts - 1 <= available ? max_attempts : available + 1;
  header.nonce = start_nonce;
  for (std::uint64_t i = 0; i < attempts; ++i) {
    if (ledger::satisfies_target(header.hash(), target)) return header;
    ++header.nonce;
  }
  return std::nullopt;
}

double SimMiner::block_rate(double hash_rate, double difficulty) {
  expects(hash_rate > 0.0, "hash rate must be positive");
  expects(std::isfinite(difficulty) && difficulty >= 1.0,
          "difficulty must be finite and >= 1");
  return hash_rate / difficulty;
}

SimTime SimMiner::sample_block_time(Rng& rng, double hash_rate, double difficulty) {
  return SimTime::seconds(rng.next_exponential(block_rate(hash_rate, difficulty)));
}

}  // namespace themis::consensus
