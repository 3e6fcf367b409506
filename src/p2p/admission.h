// Transaction admission (§III: only consortium members with a valid
// signature and a usable nonce reach the pool).
//
// admit() runs on the caller's thread — an RPC connection or a peer reader —
// over the caller's own transactions, in chunks of up to kAdmitBatchMax.
// Per chunk it looks senders up in the immutable key registry,
// batch-verifies the signatures (per-item fallback, so a forgery is charged
// to its own item), runs the node's stateful stage (confirmed check, nonce
// window, pool insert and lifecycle stamps — under the node's consensus
// lock), counts every verdict, and runs the node's publish stage (traces,
// one announcement) outside that lock.  Every caller arrives with its own
// batch (one submit_txs call, one kP2pTxBatch frame), so callers never wait
// on one another here: concurrent callers verify in parallel and meet only
// at the consensus lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "consensus/chain_core.h"
#include "ledger/transaction.h"
#include "obs/live/registry.h"

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
  /// The times are obs::live::monotonic_ns() readings for the node's stage
  /// tracker, which the stateful stage writes under the consensus lock.
  struct Request {
    const ledger::SignedTransaction* stx = nullptr;
    std::uint64_t source_session = 0;  ///< relaying peer; 0 = RPC
    TxAdmit result = TxAdmit::accepted;
    std::uint64_t submitted_ns = 0;  ///< admit() entered
    std::uint64_t verified_ns = 0;   ///< signature checked; 0 = never
  };
  using Stage = std::function<void(std::span<Request>)>;

  /// Registers themis_admit_batch_seconds and themis_tx_*_total in
  /// `metrics`.  Both stages see every request, rejected ones included.
  TxAdmission(std::shared_ptr<const consensus::KeyRegistry> keys,
              obs::live::Registry& metrics, Stage stateful, Stage publish);

  /// Admit `stxs` on the calling thread; returns once all are settled.  One
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
  void process_batch(std::span<Request> batch);

  const std::shared_ptr<const consensus::KeyRegistry> keys_;
  const Stage stateful_;
  const Stage publish_;

  obs::live::Histogram* batch_seconds_;
  obs::live::Counter* submitted_;
  obs::live::Counter* accepted_;
  obs::live::Counter* rejected_;
  obs::live::Counter* duplicate_;
};

}  // namespace themis::p2p
