// Authenticated account state: paged Merkle commitment + inclusion proofs.
//
// The ledger state is partitioned into fixed id-range *pages*: page p covers
// accounts [p*64, (p+1)*64).  Each page serializes its live accounts in id
// order (default-valued accounts are skipped, so the commitment is
// independent of incidental map materialization) and hashes into one Merkle
// leaf; the page hashes form a binary Merkle tree via crypto/merkle, whose
// root is the *state root* a node reports alongside each head.
//
// Fixed ranges make the commitment incrementally maintainable: a block that
// touches k accounts dirties at most k pages, and RootCache, which stores
// every level of the tree, re-hashes those leaves and their paths to the
// root — O(k log P) — and reads a proof's path in O(log P).  The pages are
// the ones LedgerState stores its accounts in.  Every page hash in the
// program goes through RootCache; a rebuild-sized set is hashed on every
// core.
//
// An AccountProof carries the full encoded page plus the Merkle path of its
// leaf.  Verifiers decode the page (strictly: ordered, in-range, no default
// accounts, no trailing bytes), find — or prove absent — the account inside
// it, and check the path against the trusted root via the light client's
// commitment verifier.  Absence within the committed page range is provable;
// ids past the last committed page are trivially empty (page_count bounds
// the id space: any id >= page_count*64 has default state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/uint128.h"
#include "crypto/merkle.h"
#include "state/ledger_state.h"

namespace themis::state::authstate {

using state::kAccountsPerPage;
using state::page_of;

/// Serialize page `page` of `state`: live accounts with id in
/// [page*64, (page+1)*64), ascending, each as (id, balance lo, balance hi,
/// next_nonce).  Default-valued accounts are omitted.
Bytes encode_page(const LedgerState& state, std::uint32_t page);

/// Leaf hash of an encoded page: double-SHA256 over a domain tag, the page
/// index, and the page bytes.  Binding the index into the leaf preimage
/// forecloses cross-page replay (two empty pages hash differently, so an
/// absence proof cannot be relocated to a page that actually has accounts).
Hash32 page_leaf_hash(std::uint32_t page, ByteSpan page_bytes);

/// Hashes of all committed pages, in page order (a RootCache rebuild).
std::vector<Hash32> page_hashes_of(const LedgerState& state);

/// The state root: Merkle root over page_hashes_of(state), through a
/// RootCache rebuild.  The empty state commits to the all-zero root.
Hash32 state_root_of(const LedgerState& state);

/// Inclusion (or in-range absence) proof for one account.
struct AccountProof {
  std::uint32_t page = 0;        ///< leaf index of the account's page
  std::uint32_t page_count = 0;  ///< committed page span (bounds the id space)
  Bytes page_bytes;              ///< full canonical page encoding
  crypto::MerkleProof steps;     ///< Merkle path from the page leaf to the root

  bool operator==(const AccountProof&) const = default;
};

/// Build the proof for `id`.  Returns nullopt when the id's page lies past
/// the committed range — the verifier then knows the account is empty iff
/// page_of(id) >= page_count reported by the same trusted root, so callers
/// should surface page_count alongside.
std::optional<AccountProof> prove_account(const LedgerState& state,
                                          ledger::NodeId id);

/// Verify `proof` against a trusted `root`, establishing that account `id`
/// has exactly the state `claimed` (a default Account claim proves absence
/// within the page).  Rejects malformed or non-canonical page encodings,
/// out-of-range leaf indices, and paths that do not reproduce the root.
bool verify_account_proof(const Hash32& root, ledger::NodeId id,
                          const Account& claimed, const AccountProof& proof);

/// Every level of the state's Merkle tree, kept up to date for an advancing
/// head.  Not thread safe; callers serialize access (the consensus lock in
/// P2pNode).
class RootCache {
 public:
  /// An update_pages call with at least this many dirty pages (a rebuild, a
  /// restore, a long gap) hashes them, and each level's parents of at least
  /// this many nodes, on every core.  Fewer, a block's worth, stay on the
  /// calling thread.
  static constexpr std::size_t kParallelPages = 1024;

  /// Recompute everything from `state` (O(accounts)).
  void rebuild(const LedgerState& state);

  /// Re-hash the pages containing `touched` ids against the post-state.
  void update(const LedgerState& state,
              const std::vector<ledger::NodeId>& touched);

  /// Re-hash `pages` (any order, duplicates allowed) and every page the
  /// committed span gained, then their paths to the root: O(dirty log P).
  void update_pages(const LedgerState& state, std::vector<std::uint32_t> pages);

  /// The state root (all zero for an empty state).
  const Hash32& root() const;
  std::uint32_t page_count() const {
    return static_cast<std::uint32_t>(levels_.front().size());
  }
  /// Leaf level: the hash of every committed page, in page order.
  const std::vector<Hash32>& page_hashes() const { return levels_.front(); }

  /// Merkle path of page `page` (< page_count()), read off the stored
  /// levels: the steps crypto::merkle_prove(page_hashes(), page) returns.
  crypto::MerkleProof prove(std::uint32_t page) const;

  bool operator==(const RootCache&) const = default;

 private:
  /// levels_[0] holds the page hashes; levels_[k + 1][i] is the parent of
  /// levels_[k][2i] and levels_[k][2i + 1] (or of levels_[k][2i] twice at an
  /// odd end); the last level holds the root alone.
  std::vector<std::vector<Hash32>> levels_ = std::vector<std::vector<Hash32>>(1);
};

}  // namespace themis::state::authstate
