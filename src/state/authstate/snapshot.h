// Durable state snapshots.
//
// A snapshot captures the full account state at a specific block so a node
// restarts in O(accounts) instead of O(history): load the snapshot, re-root
// the BlockTree at the snapshot block, and replay only the records above it.
// Paired with BlockStore pruning (dropping records below the snapshot
// height), disk usage stops growing with chain length.
//
// Format (versioned, little-endian, single file):
//   magic "TSNP" | version u32 | height u64 | block hash | state root |
//   account count varint | (id u32, balance lo u64, balance hi u64,
//   next_nonce u64)* ascending | sha256d checksum of everything before it
//
// Writes are atomic: the payload lands in `<path>.tmp` which is then renamed
// over the target, so a crash mid-write leaves the previous snapshot intact.
// Reads verify the checksum AND recompute the Merkle state root from the
// decoded accounts — a snapshot that does not reproduce its own claimed root
// is treated as absent, and the node falls back to full replay.  The
// checksum runs on a thread of its own beside the decode and the root check
// (which hashes on every core), and the decoded snapshot keeps the Merkle
// levels it checked, so a restore hashes the state once.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "common/bytes.h"
#include "ledger/types.h"
#include "state/authstate/merkle_state.h"
#include "state/ledger_state.h"

namespace themis::state::authstate {

inline constexpr std::uint32_t kSnapshotVersion = 1;

struct Snapshot {
  std::uint64_t height = 0;       ///< height of the snapshot block
  ledger::BlockHash block{};      ///< id of the snapshot block
  Hash32 state_root{};            ///< authstate root of `state`
  LedgerState state;              ///< full account state at `block`, inclusive
  /// Every Merkle level of `state`, as decode_snapshot checked them against
  /// `state_root`, so a restore need not hash the state again.
  /// encode_snapshot ignores it (and `state_root`) and hashes `state`.
  RootCache roots;
};

/// Serialize a snapshot (computes and embeds the state root).
Bytes encode_snapshot(const Snapshot& snapshot);

/// Write atomically (tmp + rename).  Returns false on any I/O failure,
/// leaving a previous snapshot at `path` untouched.
bool write_snapshot(const std::filesystem::path& path,
                    const Snapshot& snapshot);

/// Decode, with `roots` filled; nullopt on any corruption (bad
/// magic/version/checksum, trailing bytes, out-of-order accounts, an id at
/// or above kMaxAccounts, or a state root mismatch).
std::optional<Snapshot> decode_snapshot(ByteSpan data);

/// Load and fully verify the snapshot at `path`; nullopt when missing or
/// corrupt (the caller then falls back to replay-from-genesis).
std::optional<Snapshot> read_snapshot(const std::filesystem::path& path);

}  // namespace themis::state::authstate
