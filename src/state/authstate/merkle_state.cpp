#include "state/authstate/merkle_state.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "ledger/light_client.h"

namespace themis::state::authstate {

namespace {

// Domain tag for page leaves, so a page hash can never be confused with a
// transaction id or an internal Merkle node.
constexpr std::uint32_t kPageTag = 0x45475054;  // "TPGE"

bool is_default(const Account& a) { return a == Account{}; }

/// Merkle path length crypto/merkle produces for `leaves` leaves.
std::size_t proof_depth(std::uint32_t leaves) {
  std::size_t depth = 0;
  for (std::uint32_t n = leaves; n > 1; n = (n + 1) / 2) ++depth;
  return depth;
}

}  // namespace

Bytes encode_page(const LedgerState& state, std::uint32_t page) {
  const AccountPage* accounts = state.page(page);
  const std::uint32_t count = accounts == nullptr ? 0 : accounts->live;
  Writer w(8 + std::size_t{count} * 28);
  w.varint(count);
  for (std::uint32_t i = 0; count > 0 && i < kAccountsPerPage; ++i) {
    const Account& account = accounts->slots[i];
    if (is_default(account)) continue;
    w.u32(page * kAccountsPerPage + i);
    w.u64(account.balance.lo());
    w.u64(account.balance.hi());
    w.u64(account.next_nonce);
  }
  return w.take();
}

Hash32 page_leaf_hash(std::uint32_t page, ByteSpan page_bytes) {
  Writer w(8 + page_bytes.size());
  w.u32(kPageTag);
  w.u32(page);
  w.raw(page_bytes);
  return crypto::sha256d(w.buffer());
}

std::vector<Hash32> page_hashes_of(const LedgerState& state) {
  RootCache cache;
  cache.rebuild(state);
  return cache.page_hashes();
}

Hash32 state_root_of(const LedgerState& state) {
  RootCache cache;
  cache.rebuild(state);
  return cache.root();
}

std::optional<AccountProof> prove_account(const LedgerState& state,
                                          ledger::NodeId id) {
  const std::uint32_t page = page_of(id);
  if (page >= state.page_count()) return std::nullopt;
  RootCache cache;
  cache.rebuild(state);
  AccountProof proof;
  proof.page = page;
  proof.page_count = cache.page_count();
  proof.page_bytes = encode_page(state, page);
  proof.steps = cache.prove(page);
  return proof;
}

bool verify_account_proof(const Hash32& root, ledger::NodeId id,
                          const Account& claimed, const AccountProof& proof) {
  if (proof.page != page_of(id)) return false;
  if (proof.page >= proof.page_count) return false;
  // The proof depth must match the committed page span exactly; a mismatched
  // depth would let a leaf be reinterpreted as an internal node.
  if (proof.steps.size() != proof_depth(proof.page_count)) return false;

  // Strict canonical page decode: ascending in-range ids, no default
  // accounts, no trailing bytes.  Anything non-canonical is rejected so the
  // prover cannot smuggle an alternative encoding of the same page.
  std::optional<Account> found;
  try {
    Reader r(proof.page_bytes);
    const std::uint64_t count = r.varint();
    std::optional<ledger::NodeId> prev;
    for (std::uint64_t i = 0; i < count; ++i) {
      const ledger::NodeId entry_id = r.u32();
      if (page_of(entry_id) != proof.page) return false;
      if (prev.has_value() && entry_id <= *prev) return false;
      prev = entry_id;
      Account account;
      const std::uint64_t lo = r.u64();
      const std::uint64_t hi = r.u64();
      account.balance = UInt128(hi, lo);
      account.next_nonce = r.u64();
      if (is_default(account)) return false;
      if (entry_id == id) found = account;
    }
    r.expect_done();
  } catch (const DecodeError&) {
    return false;
  }

  // The page either pins the account's exact state or proves its absence.
  if (found.value_or(Account{}) != claimed) return false;

  const Hash32 leaf = page_leaf_hash(proof.page, proof.page_bytes);
  return ledger::HeaderChain::verify_commitment(leaf, proof.steps, root);
}

void RootCache::rebuild(const LedgerState& state) {
  levels_.assign(1, {});
  update_pages(state, {});
}

void RootCache::update(const LedgerState& state,
                       const std::vector<ledger::NodeId>& touched) {
  std::vector<std::uint32_t> pages;
  pages.reserve(touched.size());
  for (const ledger::NodeId id : touched) pages.push_back(page_of(id));
  update_pages(state, std::move(pages));
}

void RootCache::update_pages(const LedgerState& state,
                             std::vector<std::uint32_t> dirty) {
  const std::uint32_t count = state.page_count();
  // Pages newly inside the committed span need hashes even when untouched
  // (an id jump can commit empty pages in between).
  for (std::uint32_t p = page_count(); p < count; ++p) dirty.push_back(p);
  std::erase_if(dirty, [count](std::uint32_t p) { return p >= count; });
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  // Each node below is hashed on its own, so a rebuild-sized set spreads
  // over every core; a block's few pages stay on the calling thread.
  const auto for_each_dirty = [](const std::vector<std::uint32_t>& nodes,
                                 auto&& hash) {
    parallel_for_index(nodes.size() >= kParallelPages ? 0 : 1, nodes.size(),
                       [&](std::size_t k) { hash(nodes[k]); });
  };

  std::size_t old_size = page_count();
  levels_.front().resize(count);
  for_each_dirty(dirty, [&](std::uint32_t p) {
    levels_.front()[p] = page_leaf_hash(p, encode_page(state, p));
  });
  // Climb one level at a time, re-hashing the parents of dirty nodes.  A
  // level whose size changed also re-hashes every parent from the old end
  // on: those pair different children (or duplicate a different last node).
  std::size_t level = 0;
  for (; levels_[level].size() > 1; ++level) {
    if (level + 1 == levels_.size()) levels_.emplace_back();
    const std::vector<Hash32>& below = levels_[level];
    std::vector<Hash32>& above = levels_[level + 1];
    const std::size_t n = below.size();
    const std::size_t old_above = above.size();
    above.resize((n + 1) / 2);
    std::vector<std::uint32_t> parents;
    parents.reserve(dirty.size() + 1);
    for (const std::uint32_t i : dirty) {
      if (parents.empty() || parents.back() != i / 2) parents.push_back(i / 2);
    }
    if (old_size != n) {
      const auto from = static_cast<std::uint32_t>(std::min(old_size, n) / 2);
      for (auto j = from; j < above.size(); ++j) parents.push_back(j);
      std::sort(parents.begin(), parents.end());
      parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
    }
    for_each_dirty(parents, [&](std::uint32_t j) {
      const std::size_t right = 2 * std::size_t{j} + 1 < n ? 2 * j + 1 : 2 * j;
      above[j] = crypto::merkle_parent(below[2 * j], below[right]);
    });
    dirty = std::move(parents);
    old_size = old_above;
  }
  levels_.resize(level + 1);
}

const Hash32& RootCache::root() const {
  static const Hash32 kEmptyRoot{};
  return levels_.back().empty() ? kEmptyRoot : levels_.back().front();
}

crypto::MerkleProof RootCache::prove(std::uint32_t page) const {
  expects(page < page_count(), "page past the committed span");
  crypto::MerkleProof proof;
  proof.reserve(levels_.size() - 1);
  std::size_t pos = page;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const std::size_t sibling =
        (pos ^ 1u) < levels_[level].size() ? (pos ^ 1u) : pos;
    proof.push_back(
        crypto::MerkleStep{levels_[level][sibling], sibling < pos});
    pos /= 2;
  }
  return proof;
}

}  // namespace themis::state::authstate
