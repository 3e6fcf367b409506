// TxAdmission without sockets or a chain: a fake stateful stage stands in for
// the node, so the caller-thread batches, the batched signature check and the
// lifecycle times are observed directly.  TSan runs this suite (CI regex
// 'Admission') for concurrent callers.
#include "p2p/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/schnorr.h"
#include "state/transfer.h"

namespace themis::p2p {
namespace {

constexpr std::size_t kMembers = 4;

ledger::SignedTransaction transfer(ledger::NodeId from, std::uint64_t nonce) {
  return ledger::sign_transaction(
      state::make_transfer_tx(from, nonce, 0, state::Transfer{0, 1, {}}));
}

std::shared_ptr<const consensus::KeyRegistry> keys_of_members() {
  auto keys = std::make_shared<consensus::KeyRegistry>();
  for (std::size_t i = 0; i < kMembers; ++i) {
    keys->add(static_cast<ledger::NodeId>(i),
              crypto::Keypair::from_node_id(i).public_key());
  }
  return keys;
}

class TxAdmissionTest : public ::testing::Test {
 protected:
  TxAdmissionTest() {
    admission_ = std::make_unique<TxAdmission>(
        keys_of_members(), metrics_,
        [this](std::span<TxAdmission::Request> batch) { stateful(batch); },
        [this](std::span<TxAdmission::Request> batch) { publish(batch); });
  }

  /// The fake stateful stage: accepts every survivor and records what it saw.
  void stateful(std::span<TxAdmission::Request> batch) {
    std::lock_guard<std::mutex> lock(mu_);
    max_batch_ = std::max(max_batch_, batch.size());
    for (const TxAdmission::Request& r : batch) {
      const ledger::TxId id = r.stx->tx.id();
      ++stateful_calls_[id];
      if (r.submitted_ns == 0) ++unstamped_;
      if ((r.verified_ns != 0) != (r.result == TxAdmit::accepted)) {
        ++unstamped_;
      }
      if (r.verified_ns != 0 && r.verified_ns < r.submitted_ns) ++unstamped_;
      in_stateful_[id] = r;
    }
  }

  void publish(std::span<TxAdmission::Request> batch) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TxAdmission::Request& r : batch) {
      const ledger::TxId id = r.stx->tx.id();
      // Publish follows the stateful stage for the same request.
      if (stateful_calls_[id] != 1) ++out_of_order_;
      ++publish_calls_[id];
    }
  }

  obs::live::Registry metrics_;
  std::unique_ptr<TxAdmission> admission_;

  std::mutex mu_;
  std::size_t max_batch_ = 0;
  std::size_t unstamped_ = 0;  ///< time missing, present when it must not be,
                               ///< or verified before submitted
  std::size_t out_of_order_ = 0;
  std::map<ledger::TxId, int> stateful_calls_;
  std::map<ledger::TxId, int> publish_calls_;
  /// Each request as the stateful stage saw it (verdict and times).
  std::map<ledger::TxId, TxAdmission::Request> in_stateful_;
};

TEST_F(TxAdmissionTest, ConcurrentSubmittersAreSettledOnceInBoundedBatches) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBatchTxs = 100;  // one call spans several batches
  constexpr std::size_t kSingleTxs = 10;
  std::vector<std::vector<ledger::SignedTransaction>> txs(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kBatchTxs + kSingleTxs; ++i) {
      txs[t].push_back(transfer(static_cast<ledger::NodeId>(t % kMembers),
                                1 + t * 1000 + i));
    }
  }
  std::vector<std::vector<TxAdmit>> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kSingleTxs; ++i) {
        verdicts[t].push_back(
            admission_->admit({txs[t][kBatchTxs + i]}, t + 1).front());
      }
      const std::vector<ledger::SignedTransaction> batch(
          txs[t].begin(), txs[t].begin() + kBatchTxs);
      for (const TxAdmit v : admission_->admit(batch, t + 1)) {
        verdicts[t].push_back(v);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::size_t total = kThreads * (kBatchTxs + kSingleTxs);
  for (const auto& per_thread : verdicts) {
    ASSERT_EQ(per_thread.size(), kBatchTxs + kSingleTxs);
    for (const TxAdmit v : per_thread) EXPECT_EQ(v, TxAdmit::accepted);
  }
  ASSERT_EQ(stateful_calls_.size(), total);
  for (const auto& [id, calls] : stateful_calls_) EXPECT_EQ(calls, 1);
  ASSERT_EQ(publish_calls_.size(), total);
  for (const auto& [id, calls] : publish_calls_) EXPECT_EQ(calls, 1);
  // A 100-transaction call is settled in chunks, the first one full.
  EXPECT_EQ(max_batch_, kAdmitBatchMax);
  EXPECT_EQ(unstamped_, 0u) << "submitted/verified times must be recorded "
                               "before the stateful stage";
  EXPECT_EQ(out_of_order_, 0u);
  const TxAdmission::Counts counts = admission_->counts();
  EXPECT_EQ(counts.submitted, total);
  EXPECT_EQ(counts.accepted, total);
  EXPECT_EQ(counts.rejected, 0u);
}

TEST_F(TxAdmissionTest, ForgedSignatureIsChargedToItsOwnItemOnly) {
  std::vector<ledger::SignedTransaction> batch;
  for (std::uint64_t i = 0; i < 10; ++i) batch.push_back(transfer(1, 1 + i));
  batch[5].signature.s[0] ^= 0x01;
  const std::vector<TxAdmit> verdicts = admission_->admit(batch, 0);
  ASSERT_EQ(verdicts.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(verdicts[i],
              i == 5 ? TxAdmit::bad_signature : TxAdmit::accepted)
        << "item " << i;
  }
  EXPECT_EQ(in_stateful_[batch[5].tx.id()].result, TxAdmit::bad_signature);
  EXPECT_EQ(unstamped_, 0u);
  const TxAdmission::Counts counts = admission_->counts();
  EXPECT_EQ(counts.rejected, 1u);
  EXPECT_EQ(counts.accepted, 9u);
}

TEST_F(TxAdmissionTest, UnknownSenderNeverReachesVerification) {
  // Member 1 is known; 99 is outside the consortium.  The outsider's
  // signature is valid under its own key, so only the registry lookup can
  // reject it — and it must do so before it gets a verified time.
  const ledger::SignedTransaction member = transfer(1, 1);
  const ledger::SignedTransaction outsider = transfer(99, 1);
  const std::vector<TxAdmit> verdicts =
      admission_->admit({member, outsider}, 0);
  EXPECT_EQ(verdicts[0], TxAdmit::accepted);
  EXPECT_EQ(verdicts[1], TxAdmit::unknown_sender);
  const TxAdmission::Request& seen = in_stateful_[outsider.tx.id()];
  EXPECT_EQ(seen.result, TxAdmit::unknown_sender);
  EXPECT_NE(seen.submitted_ns, 0u);
  EXPECT_EQ(seen.verified_ns, 0u);
  EXPECT_EQ(unstamped_, 0u);
}

TEST(TxAdmission, OneCallerCannotHoldAnother) {
  // Caller A's transfer blocks inside the stateful stage until released;
  // caller B's admit must settle meanwhile, on B's own thread.
  obs::live::Registry metrics;
  std::latch a_blocked(1);
  std::latch release_a(1);
  TxAdmission admission(
      keys_of_members(), metrics,
      [&](std::span<TxAdmission::Request> batch) {
        if (batch.front().source_session != 1) return;
        a_blocked.count_down();
        release_a.wait();
      },
      [](std::span<TxAdmission::Request>) {});
  std::thread a([&] { admission.admit({transfer(1, 1)}, 1); });
  a_blocked.wait();
  auto b = std::async(std::launch::async,
                      [&] { return admission.admit({transfer(2, 1)}, 2); });
  const bool b_settled =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release_a.count_down();
  a.join();
  EXPECT_TRUE(b_settled) << "caller B waited on caller A's stateful stage";
  EXPECT_EQ(b.get(), std::vector<TxAdmit>{TxAdmit::accepted});
}

TEST(TxAdmission, StatefulVerdictsAreCountedByKind) {
  obs::live::Registry metrics;
  auto keys = std::make_shared<consensus::KeyRegistry>();
  keys->add(1, crypto::Keypair::from_node_id(1).public_key());
  // Nonce n gets the n-th verdict; 4 is left accepted.
  TxAdmission admission(
      keys, metrics,
      [](std::span<TxAdmission::Request> batch) {
        for (TxAdmission::Request& r : batch) {
          switch (r.stx->tx.nonce()) {
            case 1: r.result = TxAdmit::duplicate; break;
            case 2: r.result = TxAdmit::known_confirmed; break;
            case 3: r.result = TxAdmit::stale_nonce; break;
            default: break;
          }
        }
      },
      [](std::span<TxAdmission::Request>) {});
  const std::vector<TxAdmit> verdicts = admission.admit(
      {transfer(1, 1), transfer(1, 2), transfer(1, 3), transfer(1, 4)}, 0);
  EXPECT_EQ(verdicts[3], TxAdmit::accepted);
  const TxAdmission::Counts counts = admission.counts();
  EXPECT_EQ(counts.submitted, 4u);
  EXPECT_EQ(counts.accepted, 1u);
  EXPECT_EQ(counts.duplicate, 2u);
  EXPECT_EQ(counts.rejected, 1u);
  EXPECT_EQ(metrics.counter("themis_tx_duplicate_total", "").get(), 2u);
}

}  // namespace
}  // namespace themis::p2p
