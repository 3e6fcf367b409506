// TxAdmission without sockets or a chain: a fake stateful stage stands in for
// the node, so the combining queue, the batched signature check and the
// lifecycle stamps are observed directly.  TSan runs this suite (CI regex
// 'Admission') for the queue choreography.
#include "p2p/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/schnorr.h"
#include "state/transfer.h"

namespace themis::p2p {
namespace {

using obs::live::TxStage;

constexpr std::size_t kMembers = 4;

ledger::SignedTransaction transfer(ledger::NodeId from, std::uint64_t nonce) {
  return ledger::sign_transaction(
      state::make_transfer_tx(from, nonce, 0, state::Transfer{0, 1, {}}));
}

class TxAdmissionTest : public ::testing::Test {
 protected:
  TxAdmissionTest() {
    auto keys = std::make_shared<consensus::KeyRegistry>();
    for (std::size_t i = 0; i < kMembers; ++i) {
      keys->add(static_cast<ledger::NodeId>(i),
                crypto::Keypair::from_node_id(i).public_key());
    }
    admission_ = std::make_unique<TxAdmission>(
        keys, metrics_, stages_,
        [this](const auto& batch) { stateful(batch); },
        [this](const auto& batch) { publish(batch); });
  }

  /// The fake stateful stage: accepts every survivor and records what it saw.
  void stateful(const std::vector<TxAdmission::Request*>& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    max_batch_ = std::max(max_batch_, batch.size());
    for (const TxAdmission::Request* r : batch) {
      const ledger::TxId id = r->stx->tx.id();
      ++stateful_calls_[id];
      const auto stamps = stages_.stamps(id);
      const bool submitted =
          stamps.has_value() &&
          (*stamps)[static_cast<std::size_t>(TxStage::submitted)] != 0;
      const bool verified =
          stamps.has_value() &&
          (*stamps)[static_cast<std::size_t>(TxStage::verified)] != 0;
      if (!submitted) ++unstamped_;
      if (verified != (r->result == TxAdmit::accepted)) ++unstamped_;
      verdict_in_stateful_[id] = r->result;
    }
  }

  void publish(const std::vector<TxAdmission::Request*>& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TxAdmission::Request* r : batch) {
      const ledger::TxId id = r->stx->tx.id();
      // Publish follows the stateful stage for the same request.
      if (stateful_calls_[id] != 1) ++out_of_order_;
      ++publish_calls_[id];
    }
  }

  obs::live::Registry metrics_;
  obs::live::StageTracker stages_{metrics_};
  std::unique_ptr<TxAdmission> admission_;

  std::mutex mu_;
  std::size_t max_batch_ = 0;
  std::size_t unstamped_ = 0;  ///< stamp missing, or present when it must not
  std::size_t out_of_order_ = 0;
  std::map<ledger::TxId, int> stateful_calls_;
  std::map<ledger::TxId, int> publish_calls_;
  std::map<ledger::TxId, TxAdmit> verdict_in_stateful_;
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
  // A 100-transaction call enters the queue at once, so some batch is full.
  EXPECT_EQ(max_batch_, kAdmitBatchMax);
  EXPECT_EQ(unstamped_, 0u) << "submitted/verified stamps must precede the "
                               "stateful stage";
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
  EXPECT_EQ(verdict_in_stateful_[batch[5].tx.id()], TxAdmit::bad_signature);
  EXPECT_EQ(unstamped_, 0u);
  const TxAdmission::Counts counts = admission_->counts();
  EXPECT_EQ(counts.rejected, 1u);
  EXPECT_EQ(counts.accepted, 9u);
}

TEST_F(TxAdmissionTest, UnknownSenderNeverReachesVerification) {
  // Member 1 is known; 99 is outside the consortium.  The outsider's
  // signature is valid under its own key, so only the registry lookup can
  // reject it — and it must do so before the verify stage stamps it.
  const ledger::SignedTransaction member = transfer(1, 1);
  const ledger::SignedTransaction outsider = transfer(99, 1);
  const std::vector<TxAdmit> verdicts =
      admission_->admit({member, outsider}, 0);
  EXPECT_EQ(verdicts[0], TxAdmit::accepted);
  EXPECT_EQ(verdicts[1], TxAdmit::unknown_sender);
  EXPECT_EQ(verdict_in_stateful_[outsider.tx.id()], TxAdmit::unknown_sender);
  const auto stamps = stages_.stamps(outsider.tx.id());
  ASSERT_TRUE(stamps.has_value());
  EXPECT_EQ((*stamps)[static_cast<std::size_t>(TxStage::verified)], 0u);
  EXPECT_EQ(unstamped_, 0u);
}

TEST(TxAdmission, StatefulVerdictsAreCountedByKind) {
  obs::live::Registry metrics;
  obs::live::StageTracker stages(metrics);
  auto keys = std::make_shared<consensus::KeyRegistry>();
  keys->add(1, crypto::Keypair::from_node_id(1).public_key());
  // Nonce n gets the n-th verdict; 4 is left accepted.
  TxAdmission admission(
      keys, metrics, stages,
      [](const std::vector<TxAdmission::Request*>& batch) {
        for (TxAdmission::Request* r : batch) {
          switch (r->stx->tx.nonce()) {
            case 1: r->result = TxAdmit::duplicate; break;
            case 2: r->result = TxAdmit::known_confirmed; break;
            case 3: r->result = TxAdmit::stale_nonce; break;
            default: break;
          }
        }
      },
      [](const std::vector<TxAdmission::Request*>&) {});
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
