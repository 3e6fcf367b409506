// Authenticated-state scale benchmark: restart paths and query latency at a
// million-account ledger.  This is the headline driver for the authstate
// layer: BENCH_state.json records how much faster a node restarts from a
// state snapshot (+ pruned store) than from a full O(history) replay,
// get_balance and Merkle-proof latency percentiles against the same state,
// and what each new head costs over the churn blocks (state_at, root
// update, one proof), so per-head costs can be compared across --accounts.
//
// The chain is synthesized directly into a BlockStore (no PoW, no network):
// account 0 is funded past 2^64 at genesis and fans out one transfer per new
// account, so the final state holds --accounts live accounts and at least
// one >64-bit balance exercising the wide-limb paths end to end.
//
//   --accounts=<n>      live accounts to create (default 1048576; --quick:
//                       65536)
//   --txs-per-block=<n> transfers per synthesized block (default 4096;
//                       --quick: 1024)
//   --churn-blocks=<n>  extra blocks of transfers among existing accounts
//                       after creation — restart cost is O(history), so a
//                       history of creations only would understate it
//                       (default 256; --quick: 64)
//   --lookups=<n>       random get_balance samples (default 10000)
//   --proofs=<n>        random prove+verify samples (default 256)
//   --json=<path>       write machine-readable results
//   --floors=<path>     JSON perf floors; exit 2 when violated
//                       (key "state_min_restart_speedup" gates
//                       full_replay_s / snapshot_restart_s)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/uint128.h"
#include "crypto/merkle.h"
#include "ledger/block.h"
#include "ledger/block_store.h"
#include "ledger/blocktree.h"
#include "state/authstate/merkle_state.h"
#include "state/authstate/snapshot.h"
#include "state/chain_state.h"
#include "state/ledger_state.h"
#include "state/transfer.h"

namespace {

using namespace themis;
namespace fs = std::filesystem;

// Genesis funding for the fan-out sender: 2^65, so the ledger carries
// >64-bit balances from block 1 onward.
const UInt128 kGenesisFund(2, 0);

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

struct Results {
  std::uint64_t accounts = 0;
  std::uint64_t blocks = 0;
  std::uint64_t txs_per_block = 0;
  std::uint64_t snapshot_height = 0;
  double build_s = 0.0;
  // Restart paths.
  double full_replay_s = 0.0;
  double snapshot_restart_s = 0.0;
  double pruned_restart_s = 0.0;
  double snapshot_write_s = 0.0;
  double prune_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t store_bytes_before = 0;
  std::uint64_t store_bytes_after = 0;
  std::uint64_t records_pruned = 0;
  // Query latency (microseconds).
  std::uint64_t lookups = 0;
  double balance_p50_us = 0.0;
  double balance_p99_us = 0.0;
  std::uint64_t proofs = 0;
  double root_rebuild_s = 0.0;
  double proof_gen_p50_us = 0.0;
  double proof_gen_p99_us = 0.0;
  double proof_verify_p50_us = 0.0;
  double proof_verify_p99_us = 0.0;
  // Per-head costs over the churn blocks (microseconds).
  std::uint64_t heads = 0;
  double state_at_p50_us = 0.0;
  double state_at_p99_us = 0.0;
  double root_update_p50_us = 0.0;
  double root_update_p99_us = 0.0;
  double head_proof_p50_us = 0.0;
  double head_proof_p99_us = 0.0;

  double speedup_snapshot() const {
    return snapshot_restart_s > 0 ? full_replay_s / snapshot_restart_s : 0.0;
  }
  double speedup_pruned() const {
    return pruned_restart_s > 0 ? full_replay_s / pruned_restart_s : 0.0;
  }
};

/// A state and the block it is the state after.
struct StateAt {
  state::LedgerState state;
  ledger::BlockHash block{};
};

/// Synthesize the chain into `store`: creation blocks fan `txs_per_block`
/// transfers from account 0 out to fresh accounts 1, 2, ...; churn blocks
/// then move funds to random existing accounts.  Returns the head id and
/// fills `head_state`, the state at `snapshot_height` and the state after
/// the last creation block.
ledger::BlockHash build_chain(ledger::BlockStore& store, std::uint64_t blocks,
                              std::uint64_t create_blocks,
                              std::uint64_t txs_per_block, std::uint64_t seed,
                              std::uint64_t snapshot_height,
                              state::LedgerState& head_state, StateAt& snap,
                              StateAt& churn_base) {
  head_state.fund(0, kGenesisFund);
  ledger::BlockHash prev = ledger::Block::genesis().id();
  std::uint64_t nonce = 1;
  ledger::NodeId next_account = 1;
  std::mt19937_64 rng(seed ^ 0x5354415445ULL);
  for (std::uint64_t h = 1; h <= blocks; ++h) {
    std::vector<ledger::Transaction> txs;
    txs.reserve(txs_per_block);
    std::vector<Hash32> leaves;
    leaves.reserve(txs_per_block);
    for (std::uint64_t i = 0; i < txs_per_block; ++i) {
      state::Transfer transfer;
      if (h <= create_blocks) {
        transfer.to = next_account++;
      } else {
        transfer.to = static_cast<ledger::NodeId>(
            1 + rng() % (next_account > 1 ? next_account - 1 : 1));
      }
      // The very first transfer moves a >2^64 amount so at least one
      // recipient balance exercises the high limb.
      transfer.amount = (nonce == 1) ? UInt128(1, 5) : UInt128(1000);
      txs.push_back(state::make_transfer_tx(
          0, nonce++, static_cast<std::int64_t>(h) * 1'000'000'000, transfer));
      leaves.push_back(txs.back().id());
    }
    ledger::BlockHeader header;
    header.height = h;
    header.prev = prev;
    header.merkle_root = crypto::merkle_root(leaves);
    header.producer = 0;
    header.timestamp_nanos = static_cast<std::int64_t>(h) * 1'000'000'000;
    header.nonce = h;
    header.tx_count = static_cast<std::uint32_t>(txs.size());
    const ledger::Block block(header, crypto::Signature{}, std::move(txs));
    const std::size_t applied = head_state.apply_block(block);
    if (applied != txs_per_block) {
      std::cerr << "error: block " << h << " applied " << applied << "/"
                << txs_per_block << " transfers\n";
      std::exit(1);
    }
    store.append(block);
    prev = block.id();
    if (h == snapshot_height) snap = {head_state, block.id()};
    if (h == create_blocks) churn_base = {head_state, block.id()};
  }
  return prev;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ArgParser parser(argc, argv);
  constexpr std::string_view kUsage =
      "state_scale [--accounts=<n>] [--txs-per-block=<n>] "
      "[--churn-blocks=<n>] [--lookups=<n>] [--proofs=<n>] [--quick] "
      "[--seed=<u64>] [--csv] [--json=<path>] [--floors=<path>]";
  const bool quick = parser.flag("--quick");
  const bool csv = parser.flag("--csv");
  const std::uint64_t seed = parser.value_u64("--seed", 1);
  const std::uint64_t accounts =
      parser.value_u64("--accounts", quick ? 65536 : 1048576);
  const std::uint64_t txs_per_block =
      parser.value_u64("--txs-per-block", quick ? 1024 : 4096);
  const std::uint64_t churn_blocks =
      parser.value_u64("--churn-blocks", quick ? 64 : 256);
  const std::uint64_t lookups = parser.value_u64("--lookups", 10000);
  const std::uint64_t proofs = parser.value_u64("--proofs", 256);
  std::string json_path;
  if (const auto v = parser.value("--json")) json_path = *v;
  std::string floors_path;
  if (const auto v = parser.value("--floors")) floors_path = *v;
  parser.reject_unknown(kUsage);

  const std::uint64_t create_blocks =
      (accounts + txs_per_block - 1) / txs_per_block;
  const std::uint64_t blocks = create_blocks + churn_blocks;
  if (accounts == 0 || txs_per_block == 0 || blocks < 10) {
    std::cerr << "error: need --accounts / --txs-per-block / --churn-blocks "
                 "giving >= 10 blocks (got "
              << blocks << ")\n";
    return 1;
  }
  // Snapshot near the head: the suffix replayed after a snapshot restart is
  // the finality window a live node would keep (8 blocks here).
  const std::uint64_t snapshot_height = blocks - 8;

  bench::banner("Authenticated state at scale: restart + query latency",
                "snapshot/pruning benchmark (synthesized chain, no PoW)");

  const fs::path dir =
      fs::temp_directory_path() /
      ("themis_state_scale_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path store_path = dir / "blocks.dat";
  const fs::path snap_path = dir / "state.snap";

  Results r;
  r.accounts = accounts;
  r.blocks = blocks;
  r.txs_per_block = txs_per_block;
  r.snapshot_height = snapshot_height;
  r.lookups = lookups;
  r.proofs = proofs;

  const std::map<ledger::NodeId, UInt128> genesis_alloc{{0, kGenesisFund}};
  state::LedgerState head_state;
  StateAt snap_at;
  StateAt churn_base;
  ledger::BlockHash head{};
  {
    const bench::WallTimer timer;
    ledger::BlockStore store(store_path);
    head = build_chain(store, blocks, create_blocks, txs_per_block, seed,
                       snapshot_height, head_state, snap_at, churn_base);
    r.build_s = timer.seconds();
    r.store_bytes_before = store.valid_bytes();
    std::cerr << "[state_scale] built " << blocks << " blocks / "
              << blocks * txs_per_block << " transfers in " << r.build_s
              << "s (" << r.store_bytes_before / (1024 * 1024) << " MiB)\n";
  }

  // Every restart runs the daemon's own path, ChainState::restore over the
  // store (from the snapshot when the ChainState has one), timed up to the
  // head state and its first Merkle root: a restarted node answers neither
  // status nor a proof before root() returns.  The divergence check is
  // untimed.
  const Hash32 head_root = state::authstate::state_root_of(head_state);
  const auto restart = [&](state::ChainState& chain, ledger::BlockTree& tree,
                           bool from_snapshot, const char* what) {
    const bench::WallTimer timer;
    const ledger::BlockStore store(store_path);
    tree = chain.restore(store);
    chain.state_at(tree, head);
    const Hash32 root = chain.root(tree, head);
    const double seconds = timer.seconds();
    if (chain.stats().restored_from_snapshot != from_snapshot ||
        chain.state_at(tree, head) != head_state || root != head_root) {
      std::cerr << "error: " << what << " diverged\n";
      std::exit(1);
    }
    return seconds;
  };

  // --- Restart path A: full replay (cold: no index, state from genesis).
  fs::remove(fs::path(store_path.string() + ".idx"));
  {
    state::ChainState chain(genesis_alloc);
    ledger::BlockTree tree;
    r.full_replay_s = restart(chain, tree, false, "full replay");
  }
  std::cerr << "[state_scale] full replay restart: " << r.full_replay_s
            << "s\n";

  // --- Restart path B: snapshot + suffix replay (store still unpruned).
  {
    const bench::WallTimer timer;
    state::authstate::Snapshot snap;
    snap.height = snapshot_height;
    snap.block = snap_at.block;
    snap.state = std::move(snap_at.state);
    if (!state::authstate::write_snapshot(snap_path, snap)) {
      std::cerr << "error: snapshot write failed\n";
      return 1;
    }
    r.snapshot_write_s = timer.seconds();
    r.snapshot_bytes = fs::file_size(snap_path);
  }
  {
    state::ChainState chain({}, snap_path);
    ledger::BlockTree tree;
    r.snapshot_restart_s = restart(chain, tree, true, "snapshot restart");
  }
  std::cerr << "[state_scale] snapshot restart:    " << r.snapshot_restart_s
            << "s (speedup " << r.speedup_snapshot() << "x)\n";

  // --- Per-head costs over the churn blocks, in the order a node pays them
  // for each new head: the body check records the block's delta (untimed),
  // then state_at materializes the head, root() brings the Merkle tree to
  // it, and one proof is served against it.  The ChainState restarts from
  // the state after the last creation block, so the churn blocks are all
  // it replays.
  std::mt19937_64 rng(seed);
  {
    const fs::path base_path = dir / "churn_base.snap";
    state::authstate::Snapshot base;
    base.height = create_blocks;
    base.block = churn_base.block;
    base.state = std::move(churn_base.state);
    if (!state::authstate::write_snapshot(base_path, base)) {
      std::cerr << "error: snapshot write failed\n";
      return 1;
    }
    base = {};
    state::ChainState chain({}, base_path);
    const ledger::BlockStore store(store_path);
    const ledger::BlockTree tree = chain.restore(store);
    std::vector<ledger::BlockHash> churn;
    for (ledger::BlockHash b = head; b != churn_base.block; b = *tree.parent(b)) {
      churn.push_back(b);
    }
    std::reverse(churn.begin(), churn.end());
    chain.root(tree, churn_base.block);  // a restarted node's first root
    std::uniform_int_distribution<ledger::NodeId> pick(
        1, static_cast<ledger::NodeId>(accounts - 1));
    std::vector<double> state_at_us, root_us, proof_us;
    for (const ledger::BlockHash& b : churn) {
      if (!chain.replay_body(tree, *tree.block(b))) {
        std::cerr << "error: churn block failed the body check\n";
        return 1;
      }
      const auto t0 = std::chrono::steady_clock::now();
      chain.state_at(tree, b);
      const auto t1 = std::chrono::steady_clock::now();
      chain.root(tree, b);
      const auto t2 = std::chrono::steady_clock::now();
      const state::ChainState::Proof proof = chain.prove(tree, b, pick(rng));
      const auto t3 = std::chrono::steady_clock::now();
      if (!proof.available) {
        std::cerr << "error: no proof at a churn head\n";
        return 1;
      }
      state_at_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      root_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
      proof_us.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());
    }
    if (chain.root(tree, head) != head_root) {
      std::cerr << "error: per-head root diverged\n";
      return 1;
    }
    r.heads = churn.size();
    r.state_at_p50_us = percentile(state_at_us, 0.50);
    r.state_at_p99_us = percentile(state_at_us, 0.99);
    r.root_update_p50_us = percentile(root_us, 0.50);
    r.root_update_p99_us = percentile(root_us, 0.99);
    r.head_proof_p50_us = percentile(proof_us, 0.50);
    r.head_proof_p99_us = percentile(proof_us, 0.99);
  }
  std::cerr << "[state_scale] per head over " << r.heads
            << " churn blocks: state_at p50 " << r.state_at_p50_us
            << " us, root update p50 " << r.root_update_p50_us
            << " us, proof p50 " << r.head_proof_p50_us << " us\n";

  // --- Restart path C: snapshot + pruned store.  The restarted state then
  // serves the proof measurements below.
  {
    const bench::WallTimer timer;
    ledger::BlockStore store(store_path);
    r.records_pruned = store.prune_below(snapshot_height);
    r.prune_s = timer.seconds();
    r.store_bytes_after = store.valid_bytes();
  }
  state::ChainState chain({}, snap_path);
  ledger::BlockTree tree;
  r.pruned_restart_s = restart(chain, tree, true, "pruned restart");
  std::cerr << "[state_scale] pruned restart:      " << r.pruned_restart_s
            << "s (speedup " << r.speedup_pruned() << "x, store "
            << r.store_bytes_before / (1024 * 1024) << " -> "
            << r.store_bytes_after / (1024 * 1024) << " MiB)\n";

  // --- get_balance latency over random ids against the head state.
  {
    std::uniform_int_distribution<ledger::NodeId> pick(
        0, static_cast<ledger::NodeId>(accounts - 1));
    std::vector<double> us;
    us.reserve(lookups);
    UInt128 checksum;
    for (std::uint64_t i = 0; i < lookups; ++i) {
      const ledger::NodeId id = pick(rng);
      const auto t0 = std::chrono::steady_clock::now();
      const state::Account& account = head_state.account(id);
      const auto t1 = std::chrono::steady_clock::now();
      checksum += account.balance;
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (checksum == UInt128(0)) std::cerr << "[state_scale] (empty sum?)\n";
    r.balance_p50_us = percentile(us, 0.50);
    r.balance_p99_us = percentile(us, 0.99);
  }

  // --- Merkle root + proof generation/verification latency, through the
  // node's ChainState::prove.  The restart already brought the root to the
  // head; the rebuild timed here hashes the whole head state from scratch.
  {
    const bench::WallTimer timer;
    state::authstate::RootCache rebuilt;
    rebuilt.rebuild(head_state);
    r.root_rebuild_s = timer.seconds();
    const Hash32 root = chain.root(tree, head);
    if (rebuilt.root() != root) {
      std::cerr << "error: rebuilt root diverged\n";
      return 1;
    }

    std::uniform_int_distribution<ledger::NodeId> pick(
        1, static_cast<ledger::NodeId>(accounts - 1));
    std::vector<double> gen_us, verify_us;
    gen_us.reserve(proofs);
    verify_us.reserve(proofs);
    for (std::uint64_t i = 0; i < proofs; ++i) {
      const ledger::NodeId id = pick(rng);
      const auto t0 = std::chrono::steady_clock::now();
      const state::ChainState::Proof proof = chain.prove(tree, head, id);
      const auto t1 = std::chrono::steady_clock::now();
      const bool ok = proof.state_root == root &&
                      state::authstate::verify_account_proof(
                          root, id, head_state.account(id), proof.proof);
      const auto t2 = std::chrono::steady_clock::now();
      if (!ok) {
        std::cerr << "error: proof for account " << id << " did not verify\n";
        return 1;
      }
      gen_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      verify_us.push_back(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    r.proof_gen_p50_us = percentile(gen_us, 0.50);
    r.proof_gen_p99_us = percentile(gen_us, 0.99);
    r.proof_verify_p50_us = percentile(verify_us, 0.50);
    r.proof_verify_p99_us = percentile(verify_us, 0.99);
  }

  std::error_code ec;
  fs::remove_all(dir, ec);

  metrics::Table t({"metric", "value"});
  t.add_row({"accounts", std::to_string(r.accounts)});
  t.add_row({"blocks x txs", std::to_string(r.blocks) + " x " +
                                 std::to_string(r.txs_per_block)});
  t.add_row({"full replay restart s", metrics::Table::num(r.full_replay_s, 3)});
  t.add_row(
      {"snapshot restart s", metrics::Table::num(r.snapshot_restart_s, 3)});
  t.add_row({"pruned restart s", metrics::Table::num(r.pruned_restart_s, 3)});
  t.add_row({"restart speedup (snapshot)",
             metrics::Table::num(r.speedup_snapshot(), 1)});
  t.add_row(
      {"restart speedup (pruned)", metrics::Table::num(r.speedup_pruned(), 1)});
  t.add_row({"store MiB before/after",
             std::to_string(r.store_bytes_before / (1024 * 1024)) + " / " +
                 std::to_string(r.store_bytes_after / (1024 * 1024))});
  t.add_row({"snapshot MiB",
             std::to_string(r.snapshot_bytes / (1024 * 1024))});
  t.add_row({"get_balance p50 us", metrics::Table::num(r.balance_p50_us, 2)});
  t.add_row({"get_balance p99 us", metrics::Table::num(r.balance_p99_us, 2)});
  t.add_row({"root rebuild s", metrics::Table::num(r.root_rebuild_s, 3)});
  t.add_row({"proof gen p50/p99 us",
             metrics::Table::num(r.proof_gen_p50_us, 1) + " / " +
                 metrics::Table::num(r.proof_gen_p99_us, 1)});
  t.add_row({"proof verify p50/p99 us",
             metrics::Table::num(r.proof_verify_p50_us, 1) + " / " +
                 metrics::Table::num(r.proof_verify_p99_us, 1)});
  t.add_row({"per-head state_at p50/p99 us",
             metrics::Table::num(r.state_at_p50_us, 1) + " / " +
                 metrics::Table::num(r.state_at_p99_us, 1)});
  t.add_row({"per-head root update p50/p99 us",
             metrics::Table::num(r.root_update_p50_us, 1) + " / " +
                 metrics::Table::num(r.root_update_p99_us, 1)});
  t.add_row({"per-head proof p50/p99 us",
             metrics::Table::num(r.head_proof_p50_us, 1) + " / " +
                 metrics::Table::num(r.head_proof_p99_us, 1)});
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
    } else {
      out << "{\n  \"benchmark\": \"state_scale\",\n"
          << "  \"config\": {\"accounts\": " << r.accounts
          << ", \"blocks\": " << r.blocks
          << ", \"txs_per_block\": " << r.txs_per_block
          << ", \"churn_blocks\": " << churn_blocks
          << ", \"snapshot_height\": " << r.snapshot_height
          << ", \"seed\": " << seed << ", \"quick\": "
          << (quick ? "true" : "false") << "},\n"
          << "  \"restart\": {\"full_replay_s\": " << r.full_replay_s
          << ", \"snapshot_restart_s\": " << r.snapshot_restart_s
          << ", \"pruned_restart_s\": " << r.pruned_restart_s
          << ", \"speedup_snapshot\": " << r.speedup_snapshot()
          << ", \"speedup_pruned\": " << r.speedup_pruned()
          << ", \"snapshot_write_s\": " << r.snapshot_write_s
          << ", \"prune_s\": " << r.prune_s
          << ", \"snapshot_bytes\": " << r.snapshot_bytes
          << ", \"store_bytes_before\": " << r.store_bytes_before
          << ", \"store_bytes_after\": " << r.store_bytes_after
          << ", \"records_pruned\": " << r.records_pruned << "},\n"
          << "  \"get_balance\": {\"lookups\": " << r.lookups
          << ", \"p50_us\": " << r.balance_p50_us
          << ", \"p99_us\": " << r.balance_p99_us << "},\n"
          << "  \"proof\": {\"count\": " << r.proofs
          << ", \"root_rebuild_s\": " << r.root_rebuild_s
          << ", \"gen_p50_us\": " << r.proof_gen_p50_us
          << ", \"gen_p99_us\": " << r.proof_gen_p99_us
          << ", \"verify_p50_us\": " << r.proof_verify_p50_us
          << ", \"verify_p99_us\": " << r.proof_verify_p99_us << "},\n"
          << "  \"per_head\": {\"heads\": " << r.heads
          << ", \"state_at_p50_us\": " << r.state_at_p50_us
          << ", \"state_at_p99_us\": " << r.state_at_p99_us
          << ", \"root_update_p50_us\": " << r.root_update_p50_us
          << ", \"root_update_p99_us\": " << r.root_update_p99_us
          << ", \"proof_p50_us\": " << r.head_proof_p50_us
          << ", \"proof_p99_us\": " << r.head_proof_p99_us << "}\n}\n";
      std::cerr << "[state_scale] wrote " << json_path << "\n";
    }
  }

  if (!floors_path.empty()) {
    Json floors;
    if (!bench::read_floors(floors_path, floors)) return 1;
    bool violated = false;
    if (floors.has("state_min_restart_speedup")) {
      const double floor = floors["state_min_restart_speedup"].as_double();
      if (r.speedup_snapshot() < floor) {
        std::cerr << "FLOOR VIOLATED: snapshot restart speedup "
                  << r.speedup_snapshot() << " < " << floor << "\n";
        violated = true;
      }
      if (r.speedup_pruned() < floor) {
        std::cerr << "FLOOR VIOLATED: pruned restart speedup "
                  << r.speedup_pruned() << " < " << floor << "\n";
        violated = true;
      }
    }
    if (violated) return 2;
    std::cerr << "[state_scale] all perf floors met (" << floors_path << ")\n";
  }
  return 0;
}
