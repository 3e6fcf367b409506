// Chain-sync protocol logic (pure functions over BlockTree).
//
// A node that falls behind — fresh start, restart after a crash, or a healed
// partition — catches up by sending kP2pGetBlocks with a *locator*: a sample
// of its main-chain block hashes, newest first, dense near the head and
// exponentially sparser toward genesis (so the locator stays O(log height)
// regardless of chain length).  The responder finds the newest locator entry
// on its own main chain — the best known common point — and answers with the
// following main-chain blocks in order, bounded by count and bytes.  The
// requester applies them, and repeats with a fresh locator until a response
// comes back empty.
//
// Everything here is deterministic and socket-free so the protocol can be
// unit-tested against hand-built trees; P2pNode wires it to the transport.
#pragma once

#include <cstddef>
#include <vector>

#include "ledger/blocktree.h"

namespace themis::p2p {

/// Number of consecutive hashes below the head before the locator spacing
/// starts doubling (Bitcoin uses 10; the value only trades locator size
/// against one extra sync round trip).
inline constexpr std::size_t kLocatorDenseSpan = 8;

/// Main-chain locator for `head`, newest first, genesis always last.
std::vector<ledger::BlockHash> build_locator(const ledger::BlockTree& tree,
                                             const ledger::BlockHash& head);

/// Serve a range request: find the newest locator hash that sits on OUR main
/// chain (genesis matches every honest locator, so a fork point always
/// exists) and return up to `max_blocks` blocks after it, in chain order,
/// stopping early once `max_bytes` of encodings are queued, or before a
/// block whose body the tree cannot produce (released, then pruned).
/// Locator entries we have never seen, or that sit on a side branch of ours,
/// are skipped — the requester's chain past the fork point is exactly what
/// sync replaces.
std::vector<ledger::BlockPtr> serve_range(const ledger::BlockTree& tree,
                                          const ledger::BlockHash& head,
                                          const std::vector<ledger::BlockHash>& locator,
                                          std::size_t max_blocks,
                                          std::size_t max_bytes);

}  // namespace themis::p2p
