// Transaction admission (§III: only consortium members with a valid
// signature and a usable nonce reach the pool).
//
// Callers (RPC submissions, relayed kP2pTxBatch frames) park requests in one
// combining queue; the first caller in leads, draining batches of up to
// kAdmitBatchMax.  Per batch the leader looks senders up in the immutable key
// registry, batch-verifies the signatures (per-item fallback, so a forgery is
// charged to its own item), runs the node's stateful stage (confirmed check,
// nonce window, pool insert — under the node's consensus lock), counts every
// verdict, and runs the node's publish stage (traces, one announcement)
// outside that lock.  The queue mutex is never held while a stage runs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "consensus/chain_core.h"
#include "ledger/transaction.h"
#include "obs/live/registry.h"
#include "obs/live/stage_tracker.h"

namespace themis::p2p {

/// Outcome of transaction admission (RPC submit or p2p relay).
enum class TxAdmit {
  accepted,         ///< entered the pool and was announced to peers
  duplicate,        ///< already pending in the pool
  known_confirmed,  ///< already confirmed on the main chain
  bad_signature,    ///< Schnorr admission signature failed to verify
  unknown_sender,   ///< sender id outside the consortium registry
  stale_nonce,      ///< nonce already consumed at the current head
  nonce_gap,        ///< nonce too far beyond the sender's next expected
};

std::string_view to_string(TxAdmit admit);

/// Most transactions one admission batch settles.
inline constexpr std::size_t kAdmitBatchMax = 64;

class TxAdmission {
 public:
  /// One transaction in flight; `result` stays `accepted` unless rejected.
  struct Request {
    const ledger::SignedTransaction* stx = nullptr;
    std::uint64_t source_session = 0;  ///< relaying peer; 0 = RPC
    TxAdmit result = TxAdmit::accepted;
    bool done = false;
  };
  using Stage = std::function<void(const std::vector<Request*>&)>;

  /// Registers themis_admit_batch_seconds and themis_tx_*_total in
  /// `metrics`.  Both stages see every request, rejected ones included.
  TxAdmission(std::shared_ptr<const consensus::KeyRegistry> keys,
              obs::live::Registry& metrics, obs::live::StageTracker& stages,
              Stage stateful, Stage publish);

  /// Admit `stxs` in one queue entry; blocks until all are settled.  One
  /// verdict per transaction, in order.
  std::vector<TxAdmit> admit(const std::vector<ledger::SignedTransaction>& stxs,
                             std::uint64_t source_session);

  struct Counts {
    std::uint64_t submitted = 0;  ///< verdicts given
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t duplicate = 0;  ///< duplicate or known_confirmed
  };
  Counts counts() const;

 private:
  /// Park `requests`; return once all are settled, leading if no one is.
  void settle(std::vector<Request>& requests);
  void process_batch(const std::vector<Request*>& batch);

  const std::shared_ptr<const consensus::KeyRegistry> keys_;
  obs::live::StageTracker& stages_;
  const Stage stateful_;
  const Stage publish_;

  std::mutex mu_;  ///< guards queue_ and leader_active_ only
  std::condition_variable cv_;
  std::deque<Request*> queue_;
  bool leader_active_ = false;

  obs::live::Histogram* batch_seconds_;
  obs::live::Counter* submitted_;
  obs::live::Counter* accepted_;
  obs::live::Counter* rejected_;
  obs::live::Counter* duplicate_;
};

}  // namespace themis::p2p
