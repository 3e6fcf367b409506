#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "crypto/sha256.h"
#include "oracles/map_ledger_state.h"
#include "state/authstate/merkle_state.h"
#include "state/authstate/snapshot.h"

namespace themis::state::authstate {
namespace {

namespace fs = std::filesystem;

LedgerState small_state() {
  LedgerState state;
  state.fund(0, 1000u);
  state.fund(1, UInt128(2, 5));  // a balance past 2^64
  state.fund(63, 7u);            // last slot of page 0
  state.fund(64, 9u);            // first slot of page 1
  state.fund(200, 11u);          // page 3
  return state;
}

TEST(MerkleState, EmptyStateCommitsToZeroRoot) {
  LedgerState state;
  EXPECT_EQ(state.page_count(), 0u);
  EXPECT_EQ(state_root_of(state), Hash32{});
}

TEST(MerkleState, PageOfPartitionsIdSpace) {
  EXPECT_EQ(page_of(0), 0u);
  EXPECT_EQ(page_of(63), 0u);
  EXPECT_EQ(page_of(64), 1u);
  EXPECT_EQ(page_of(200), 3u);
}

TEST(MerkleState, PageCountCoversHighestLiveAccount) {
  EXPECT_EQ(small_state().page_count(), 4u);
  LedgerState one;
  one.fund(0, 1u);
  EXPECT_EQ(one.page_count(), 1u);
}

TEST(MerkleState, DefaultAccountsDoNotAffectTheRoot) {
  LedgerState a = small_state();
  LedgerState b = small_state();
  // Materialize default entries in one copy only (e.g. via failed lookups
  // that insert) — the commitment must not see them.
  b.put(5, Account{});
  b.put(199, Account{});
  EXPECT_EQ(state_root_of(a), state_root_of(b));
}

TEST(MerkleState, RootIsDeterministicAcrossInsertionOrder) {
  LedgerState a;
  a.fund(3, 10u);
  a.fund(100, 20u);
  LedgerState b;
  b.fund(100, 20u);
  b.fund(3, 10u);
  EXPECT_EQ(state_root_of(a), state_root_of(b));
}

TEST(MerkleState, RootChangesWithAnyBalance) {
  LedgerState state = small_state();
  const Hash32 before = state_root_of(state);
  state.fund(0, 1u);
  EXPECT_NE(state_root_of(state), before);
}

TEST(MerkleState, ProveAndVerifyPresentAccount) {
  const LedgerState state = small_state();
  const Hash32 root = state_root_of(state);
  for (const ledger::NodeId id : {0u, 1u, 63u, 64u, 200u}) {
    const auto proof = prove_account(state, id);
    ASSERT_TRUE(proof.has_value()) << id;
    EXPECT_TRUE(verify_account_proof(root, id, state.account(id), *proof))
        << id;
  }
}

TEST(MerkleState, ProvesAbsenceWithinCommittedRange) {
  const LedgerState state = small_state();
  const Hash32 root = state_root_of(state);
  // Account 42 lives in page 0's range but has no entry; 150 sits in the
  // committed-but-empty page 2.
  for (const ledger::NodeId id : {42u, 150u}) {
    const auto proof = prove_account(state, id);
    ASSERT_TRUE(proof.has_value()) << id;
    EXPECT_TRUE(verify_account_proof(root, id, Account{}, *proof)) << id;
    // And the same proof rejects a fabricated balance.
    Account fake;
    fake.balance = 1u;
    EXPECT_FALSE(verify_account_proof(root, id, fake, *proof)) << id;
  }
}

TEST(MerkleState, NoProofPastCommittedRange) {
  const LedgerState state = small_state();
  EXPECT_FALSE(prove_account(state, 256).has_value());
  EXPECT_FALSE(prove_account(LedgerState{}, 0).has_value());
}

TEST(MerkleState, VerifyRejectsWrongClaim) {
  const LedgerState state = small_state();
  const Hash32 root = state_root_of(state);
  const auto proof = prove_account(state, 0);
  ASSERT_TRUE(proof.has_value());
  Account wrong = state.account(0);
  wrong.balance += 1u;
  EXPECT_FALSE(verify_account_proof(root, 0, wrong, *proof));
  wrong = state.account(0);
  wrong.next_nonce += 1;
  EXPECT_FALSE(verify_account_proof(root, 0, wrong, *proof));
}

TEST(MerkleState, VerifyRejectsTamperedProof) {
  const LedgerState state = small_state();
  const Hash32 root = state_root_of(state);
  const auto good = prove_account(state, 64);
  ASSERT_TRUE(good.has_value());
  const Account claimed = state.account(64);

  // Flipped sibling hash.
  auto tampered = *good;
  ASSERT_FALSE(tampered.steps.empty());
  tampered.steps[0].sibling[0] ^= 1;
  EXPECT_FALSE(verify_account_proof(root, 64, claimed, tampered));

  // Flipped direction bit.
  tampered = *good;
  tampered.steps[0].sibling_on_left = !tampered.steps[0].sibling_on_left;
  EXPECT_FALSE(verify_account_proof(root, 64, claimed, tampered));

  // Truncated and extended paths (depth must match the page span).
  tampered = *good;
  tampered.steps.pop_back();
  EXPECT_FALSE(verify_account_proof(root, 64, claimed, tampered));
  tampered = *good;
  tampered.steps.push_back(tampered.steps[0]);
  EXPECT_FALSE(verify_account_proof(root, 64, claimed, tampered));

  // Tampered page bytes.
  tampered = *good;
  ASSERT_FALSE(tampered.page_bytes.empty());
  tampered.page_bytes.back() ^= 1;
  EXPECT_FALSE(verify_account_proof(root, 64, claimed, tampered));

  // Proof presented for an id in a different page.
  EXPECT_FALSE(verify_account_proof(root, 0, state.account(0), *good));
}

TEST(MerkleState, VerifyRejectsCrossPageReplay) {
  // Two committed-but-empty pages encode identically; the page index baked
  // into the leaf hash must keep their proofs from being swapped.
  LedgerState state;
  state.fund(0, 1u);
  state.fund(300, 1u);  // commits empty pages 1..3
  const Hash32 root = state_root_of(state);
  const auto p1 = prove_account(state, 1 * kAccountsPerPage);
  ASSERT_TRUE(p1.has_value());
  EXPECT_TRUE(verify_account_proof(root, 1 * kAccountsPerPage, Account{}, *p1));
  // Relabel page 1's proof as a page-2 proof for a page-2 id.
  auto replay = *p1;
  replay.page = 2;
  EXPECT_FALSE(
      verify_account_proof(root, 2 * kAccountsPerPage, Account{}, replay));
}

TEST(MerkleState, VerifyRejectsNonCanonicalPageEncodings) {
  const LedgerState state = small_state();
  const Hash32 root = state_root_of(state);
  const auto good = prove_account(state, 0);
  ASSERT_TRUE(good.has_value());

  // Descending entries.
  auto bad = *good;
  Writer w;
  w.varint(2);
  w.u32(1);
  w.u64(state.account(1).balance.lo());
  w.u64(state.account(1).balance.hi());
  w.u64(state.account(1).next_nonce);
  w.u32(0);
  w.u64(state.account(0).balance.lo());
  w.u64(state.account(0).balance.hi());
  w.u64(state.account(0).next_nonce);
  bad.page_bytes = w.take();
  EXPECT_FALSE(verify_account_proof(root, 0, state.account(0), bad));

  // Default-valued entry smuggled in.
  bad = *good;
  Writer w2;
  w2.varint(1);
  w2.u32(0);
  w2.u64(0);
  w2.u64(0);
  w2.u64(1);  // == Account{}
  bad.page_bytes = w2.take();
  EXPECT_FALSE(verify_account_proof(root, 0, Account{}, bad));

  // Trailing garbage.
  bad = *good;
  bad.page_bytes.push_back(0);
  EXPECT_FALSE(verify_account_proof(root, 0, state.account(0), bad));

  // Entry from a different page's id range.
  bad = *good;
  Writer w3;
  w3.varint(1);
  w3.u32(64);  // not in page 0
  w3.u64(1);
  w3.u64(0);
  w3.u64(1);
  bad.page_bytes = w3.take();
  EXPECT_FALSE(verify_account_proof(root, 0, Account{}, bad));
}

/// ~5,000 accounts with id gaps, one balance past 2^64, empty interior
/// pages 118..126 and a default-valued entry that must not be committed.
LedgerState pinned_state() {
  LedgerState state;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const ledger::NodeId id = i * 3 + (i >= 2500 ? 640 : 0);
    state.put(id, Account{UInt128(1000 + std::uint64_t{id} * 7), 1 + id % 5});
  }
  state.put(64, Account{UInt128(3, 12345), 9});
  state.put(65, Account{});
  return state;
}

std::string proof_digest(const AccountProof& proof) {
  Writer w;
  w.u32(proof.page);
  w.u32(proof.page_count);
  w.bytes(proof.page_bytes);
  for (const crypto::MerkleStep& step : proof.steps) {
    w.hash(step.sibling);
    w.u8(step.sibling_on_left ? 1 : 0);
  }
  return to_hex(crypto::sha256(w.buffer()));
}

// Known answers from the map-based state this commitment was first written
// for: datadir snapshots and the roots clients hold depend on these bytes,
// so any drift in page encoding, leaf preimage, odd-level duplication or
// snapshot layout fails here.
TEST(MerkleState, CommitmentMatchesPinnedValues) {
  const LedgerState state = pinned_state();
  EXPECT_EQ(state.page_count(), 245u);
  EXPECT_EQ(to_hex(state_root_of(state)),
            "5962468732b36eb86b0e5d73e62389966a7f04e1999f71f7f16337b8421fa015");
  EXPECT_EQ(state.total_supply().to_decimal(), "55340232221407314693");

  RootCache cache;
  cache.rebuild(state);
  EXPECT_EQ(cache.root(), state_root_of(state));
  const std::pair<ledger::NodeId, const char*> pinned[] = {
      {64, "547f908421ca667d4deaf64ba185a0228722e28672e02d247d9963ae6d3ed245"},
      // Absence inside the empty interior page 118.
      {7600, "1c0a9f22b425b97e963bbb489fd3d48e27665c3978b5980d3910af12ecf19509"},
      {15637, "145f76fcb9690e69449ab05401c43386422c6355eaecedfbc238c95eaa9ddc38"},
  };
  for (const auto& [id, digest] : pinned) {
    const auto proof = prove_account(state, id);
    ASSERT_TRUE(proof.has_value()) << id;
    EXPECT_EQ(proof_digest(*proof), digest) << id;
    EXPECT_EQ(cache.prove(proof->page), proof->steps) << id;
    EXPECT_TRUE(verify_account_proof(cache.root(), id, state.account(id), *proof));
  }

  Snapshot snap;
  snap.height = 77;
  snap.block.fill(0x5a);
  snap.state = state;
  const Bytes encoded = encode_snapshot(snap);
  EXPECT_EQ(encoded.size(), 140142u);
  EXPECT_EQ(to_hex(crypto::sha256(encoded)),
            "4157aede0703bafdaf5c7fcb1a134e5efd0b0480afaae78ee2420086521c4291");
}

TEST(MerkleState, StoredLevelsProveEveryPageLikeMerkleProve) {
  for (const std::uint32_t pages : {1u, 2u, 3u, 5u, 8u, 9u, 33u}) {
    LedgerState state;
    for (std::uint32_t p = 0; p < pages; p += 2) state.fund(p * 64 + 5, 1u);
    state.fund((pages - 1) * 64, 1u);
    RootCache cache;
    cache.rebuild(state);
    ASSERT_EQ(cache.page_count(), pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
      EXPECT_EQ(cache.prove(p), crypto::merkle_prove(cache.page_hashes(), p))
          << pages << " pages, page " << p;
    }
  }
}

/// The same accounts in the map-based reference state.
oracle::MapLedgerState as_oracle(const LedgerState& state) {
  oracle::MapLedgerState map;
  state.for_each_account(
      [&map](ledger::NodeId id, const Account& account) { map.put(id, account); });
  return map;
}

/// `pages` committed pages, one account in each: its slot varies with the
/// page, and `salt` varies the balances.
LedgerState one_account_per_page(std::uint32_t pages, std::uint64_t salt) {
  LedgerState state;
  for (std::uint32_t p = 0; p < pages; ++p) {
    state.put(p * kAccountsPerPage + p % kAccountsPerPage,
              Account{UInt128(salt + p), 1 + p % 3});
  }
  return state;
}

/// Every page of `state`, the dirty set of a rebuild.
std::vector<std::uint32_t> every_page(const LedgerState& state) {
  std::vector<std::uint32_t> pages(state.page_count());
  std::iota(pages.begin(), pages.end(), 0u);
  return pages;
}

TEST(RootCacheTest, RebuildMatchesStateRoot) {
  const LedgerState state = small_state();
  RootCache cache;
  cache.rebuild(state);
  EXPECT_EQ(cache.root(), oracle::state_root_of(as_oracle(state)));
  EXPECT_EQ(cache.page_count(), state.page_count());

  // Page counts around the threshold past which the pages are hashed on
  // every core, and one past a power of two.
  constexpr auto kThreshold = static_cast<std::uint32_t>(RootCache::kParallelPages);
  for (const std::uint32_t pages :
       {1u, kThreshold - 1, kThreshold, kThreshold + 1, 4097u}) {
    const LedgerState wide = one_account_per_page(pages, 1);
    const oracle::MapLedgerState expected = as_oracle(wide);
    RootCache threaded;
    threaded.rebuild(wide);
    EXPECT_EQ(threaded.root(), oracle::state_root_of(expected)) << pages;
    EXPECT_EQ(threaded.page_hashes(), oracle::page_hashes_of(expected)) << pages;
  }
}

TEST(RootCacheTest, IncrementalUpdateMatchesRebuild) {
  LedgerState state = small_state();
  RootCache cache;
  cache.rebuild(state);

  // Touch an existing account and add one in a brand-new page far away
  // (commits empty pages in between).
  state.fund(0, 5u);
  state.fund(1000, 13u);
  cache.update(state, {0, 1000});
  EXPECT_EQ(cache.root(), oracle::state_root_of(as_oracle(state)));
  EXPECT_EQ(cache.page_count(), state.page_count());

  // A long randomized walk: apply touches, compare against full recompute.
  std::mt19937 rng(77);
  std::vector<ledger::NodeId> touched;
  for (int step = 0; step < 50; ++step) {
    touched.clear();
    for (int k = 0; k < 5; ++k) {
      const ledger::NodeId id = rng() % 2048;
      Account account = state.account(id);
      account.balance += (rng() % 100) + 1;
      account.next_nonce += 1;
      state.put(id, account);
      touched.push_back(id);
    }
    cache.update(state, touched);
    ASSERT_EQ(cache.root(), oracle::state_root_of(as_oracle(state)))
        << "step " << step;
  }

  // A rebuild-sized update_pages, hashed on every core, over a cache that
  // holds a smaller state (the span grows) or a larger one (it shrinks).
  const LedgerState small = one_account_per_page(1500, 7);
  const LedgerState large = one_account_per_page(4097, 9);
  const std::pair<const LedgerState*, const LedgerState*> moves[] = {
      {&small, &large}, {&large, &small}};
  for (const auto& [from, to] : moves) {
    RootCache moved;
    moved.rebuild(*from);
    moved.update_pages(*to, every_page(*to));
    const oracle::MapLedgerState expected = as_oracle(*to);
    EXPECT_EQ(moved.root(), oracle::state_root_of(expected))
        << from->page_count() << " -> " << to->page_count();
    EXPECT_EQ(moved.page_hashes(), oracle::page_hashes_of(expected));
    for (const std::uint32_t page : {0u, 1499u, to->page_count() - 1}) {
      EXPECT_EQ(moved.prove(page), crypto::merkle_prove(moved.page_hashes(), page))
          << page;
    }
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("themis_snap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = dir_ / "state.snap";
  }
  void TearDown() override { fs::remove_all(dir_); }

  Snapshot sample() {
    Snapshot snap;
    snap.height = 42;
    snap.block[0] = 0xab;
    snap.state = small_state();
    return snap;
  }

  /// Wide enough that the root check hashes on every core while the
  /// checksum thread runs.
  Snapshot wide_sample() {
    Snapshot snap = sample();
    snap.state = one_account_per_page(RootCache::kParallelPages + 1, 3);
    return snap;
  }

  /// `payload` followed by its own checksum, as write_snapshot seals it.
  static Bytes seal(ByteSpan payload) {
    Writer w;
    w.raw(payload);
    w.hash(crypto::sha256d(payload));
    return w.take();
  }

  fs::path dir_;
  fs::path path_;
};

TEST_F(SnapshotTest, WriteReadRoundTrip) {
  const Snapshot snap = sample();
  ASSERT_TRUE(write_snapshot(path_, snap));
  const auto back = read_snapshot(path_);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->height, 42u);
  EXPECT_EQ(back->block, snap.block);
  EXPECT_EQ(back->state, snap.state);
  EXPECT_EQ(back->state_root, state_root_of(snap.state));
  // No .tmp litter after a successful rename.
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(SnapshotTest, MissingFileIsAbsent) {
  EXPECT_FALSE(read_snapshot(path_).has_value());
  EXPECT_FALSE(read_snapshot(dir_).has_value());  // directory, not a file
}

TEST_F(SnapshotTest, ChecksumCatchesBitRot) {
  for (const Snapshot& snap : {sample(), wide_sample()}) {
    ASSERT_TRUE(write_snapshot(path_, snap));
    Bytes data;
    {
      std::ifstream in(path_, std::ios::binary);
      data.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_TRUE(decode_snapshot(data).has_value());
    for (const std::size_t at : {std::size_t{0}, data.size() / 2,
                                 data.size() - 1}) {
      Bytes corrupt = data;
      corrupt[at] ^= 0x40;
      EXPECT_FALSE(decode_snapshot(corrupt).has_value()) << "byte " << at;
    }
    // Truncations at every boundary: inside the header, the record count,
    // a record and the checksum.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{31}, std::size_t{32}, std::size_t{33},
          std::size_t{80}, std::size_t{81}, data.size() / 2,
          data.size() - 33, data.size() - 32, data.size() - 1}) {
      const Bytes truncated(data.begin(),
                            data.begin() + static_cast<std::ptrdiff_t>(keep));
      EXPECT_FALSE(decode_snapshot(truncated).has_value()) << "keep " << keep;
    }
  }
}

TEST_F(SnapshotTest, RootMismatchRejectedEvenWithValidChecksum) {
  // Corrupt one balance byte *and* refresh the trailing checksum: the decode
  // must still fail, because the embedded root no longer matches the state.
  Bytes data = encode_snapshot(sample());
  data[data.size() - 32 - 9] ^= 0x01;  // inside the last account record
  const ByteSpan payload(data.data(), data.size() - 32);
  const Hash32 checksum = crypto::sha256d(payload);
  std::copy(checksum.begin(), checksum.end(), data.end() - 32);
  EXPECT_FALSE(decode_snapshot(data).has_value());

  // Truncations sealed with a fresh checksum, so only the decode can refuse
  // them: inside the header (80 bytes), the record count, the first record,
  // a record boundary and the last record.
  const Bytes whole = encode_snapshot(wide_sample());
  const std::size_t payload_size = whole.size() - 32;
  ASSERT_TRUE(decode_snapshot(whole).has_value());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{16},
        std::size_t{48}, std::size_t{80}, std::size_t{81}, std::size_t{90},
        payload_size / 2, payload_size - 28, payload_size - 1}) {
    EXPECT_FALSE(decode_snapshot(seal(ByteSpan(whole.data(), keep))).has_value())
        << "keep " << keep;
  }

  // A hostile record count under a valid checksum: a huge claim reads
  // records until the bytes run out (nothing is sized by it), and a short
  // one leaves trailing records.
  const LedgerState state = small_state();
  const auto claiming = [&state](std::uint64_t count) {
    Writer w;
    w.u32(0x504e5354);  // "TSNP"
    w.u32(kSnapshotVersion);
    w.u64(42);
    w.hash(Hash32{});
    w.hash(state_root_of(state));
    w.varint(count);
    state.for_each_account([&w](ledger::NodeId id, const Account& account) {
      w.u32(id);
      w.u64(account.balance.lo());
      w.u64(account.balance.hi());
      w.u64(account.next_nonce);
    });
    return seal(w.buffer());
  };
  const std::uint64_t live = state.live_accounts();
  ASSERT_TRUE(decode_snapshot(claiming(live)).has_value());
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, ~std::uint64_t{0}, live + 1, live - 1}) {
    EXPECT_FALSE(decode_snapshot(claiming(count)).has_value()) << count;
  }
}

TEST_F(SnapshotTest, IdAtOrAboveTheCapRejected) {
  // A well-formed, checksummed snapshot whose root really commits to an
  // account at kMaxAccounts: only the id cap stands between it and a page
  // table of 65,537 pages.
  oracle::MapLedgerState wide;
  wide.fund(3, 10u);
  wide.fund(kMaxAccounts, 10u);
  Writer w;
  w.u32(0x504e5354);  // "TSNP"
  w.u32(kSnapshotVersion);
  w.u64(42);
  w.hash(Hash32{});
  w.hash(oracle::state_root_of(wide));
  w.varint(2);
  for (const auto& [id, account] : wide.accounts()) {
    w.u32(id);
    w.u64(account.balance.lo());
    w.u64(account.balance.hi());
    w.u64(account.next_nonce);
  }
  w.hash(crypto::sha256d(w.buffer()));
  EXPECT_FALSE(decode_snapshot(w.buffer()).has_value());

  // The same layout just below the cap decodes.
  oracle::MapLedgerState edge;
  edge.fund(kMaxAccounts - 1, 10u);
  Writer ok;
  ok.u32(0x504e5354);
  ok.u32(kSnapshotVersion);
  ok.u64(42);
  ok.hash(Hash32{});
  ok.hash(oracle::state_root_of(edge));
  ok.varint(1);
  ok.u32(kMaxAccounts - 1);
  ok.u64(10);
  ok.u64(0);
  ok.u64(1);
  ok.hash(crypto::sha256d(ok.buffer()));
  const auto decoded = decode_snapshot(ok.buffer());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->state.balance(kMaxAccounts - 1), 10u);
}

TEST_F(SnapshotTest, BadVersionRejected) {
  Bytes data = encode_snapshot(sample());
  data[4] = 0x7f;  // version field
  const ByteSpan payload(data.data(), data.size() - 32);
  const Hash32 checksum = crypto::sha256d(payload);
  std::copy(checksum.begin(), checksum.end(), data.end() - 32);
  EXPECT_FALSE(decode_snapshot(data).has_value());
}

TEST_F(SnapshotTest, OverwriteIsAtomic) {
  ASSERT_TRUE(write_snapshot(path_, sample()));
  Snapshot next = sample();
  next.height = 99;
  next.state.fund(500, 1u);
  ASSERT_TRUE(write_snapshot(path_, next));
  const auto back = read_snapshot(path_);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->height, 99u);
  EXPECT_EQ(back->state, next.state);
}

}  // namespace
}  // namespace themis::state::authstate
