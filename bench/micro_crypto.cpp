// Microbenchmarks for the cryptographic substrate (google-benchmark).
//
// These are not paper figures; they quantify the per-block costs §VI-C argues
// are negligible: hashing for the PoW puzzle, header signing/verification,
// and merkle commitments.
#include <benchmark/benchmark.h>

#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "ledger/block.h"

namespace {

using namespace themis;

void BM_Sha256_64B(benchmark::State& state) {
  const Bytes data(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  const Bytes data(4096, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_HeaderPowHash(benchmark::State& state) {
  ledger::BlockHeader h;
  h.height = 100;
  h.difficulty = 1e6;
  for (auto _ : state) {
    ++h.nonce;  // one puzzle attempt
    benchmark::DoNotOptimize(h.hash());
  }
}
BENCHMARK(BM_HeaderPowHash);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes msg(32, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SchnorrSign(benchmark::State& state) {
  const auto keypair = crypto::Keypair::from_node_id(1);
  const Hash32 msg = crypto::sha256(bytes_of("header"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(keypair.sign(msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const auto keypair = crypto::Keypair::from_node_id(1);
  const Hash32 msg = crypto::sha256(bytes_of("header"));
  const auto sig = keypair.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(keypair.public_key(), msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

// A synthetic admission batch: several senders, each with a run of
// transaction digests — the shape the RPC admission pipeline sees.
std::vector<crypto::BatchVerifyItem> admission_batch(std::size_t n) {
  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto keypair = crypto::Keypair::from_node_id(i % 4);
    Bytes payload = bytes_of("admission tx");
    payload.push_back(static_cast<std::uint8_t>(i));
    payload.push_back(static_cast<std::uint8_t>(i >> 8));
    const Hash32 msg = crypto::sha256(payload);
    items.push_back({keypair.public_key(), msg, keypair.sign(msg)});
  }
  return items;
}

// Baseline for the batch comparison: the same admission batch verified one
// signature at a time, as the pre-reactor request thread did.
void BM_SchnorrAdmitSingle(benchmark::State& state) {
  const auto items = admission_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bool ok = true;
    for (const auto& it : items) ok &= crypto::verify(it.pub, it.msg, it.sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SchnorrAdmitSingle)->Arg(16)->Arg(64);

// Batched admission on one thread, as admission runs it.  Items/s is the
// headline number.
void BM_SchnorrAdmitBatch(benchmark::State& state) {
  const auto items = admission_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify_batch(items));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SchnorrAdmitBatch)->Arg(16)->Arg(64);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash32> leaves;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::sha256(Bytes{static_cast<std::uint8_t>(i),
                                          static_cast<std::uint8_t>(i >> 8)}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::merkle_root(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(64)->Arg(1024)->Arg(4096);

}  // namespace
