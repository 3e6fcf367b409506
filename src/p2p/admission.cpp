#include "p2p/admission.h"

#include <algorithm>

#include "crypto/schnorr.h"

namespace themis::p2p {

using obs::live::TxStage;

std::string_view to_string(TxAdmit admit) {
  switch (admit) {
    case TxAdmit::accepted: return "accepted";
    case TxAdmit::duplicate: return "duplicate";
    case TxAdmit::known_confirmed: return "known_confirmed";
    case TxAdmit::bad_signature: return "bad_signature";
    case TxAdmit::unknown_sender: return "unknown_sender";
    case TxAdmit::stale_nonce: return "stale_nonce";
    case TxAdmit::nonce_gap: return "nonce_gap";
  }
  return "unknown";
}

TxAdmission::TxAdmission(std::shared_ptr<const consensus::KeyRegistry> keys,
                         obs::live::Registry& metrics,
                         obs::live::StageTracker& stages, Stage stateful,
                         Stage publish)
    : keys_(std::move(keys)),
      stages_(stages),
      stateful_(std::move(stateful)),
      publish_(std::move(publish)),
      batch_seconds_(&metrics.histogram("themis_admit_batch_seconds",
          "Latency of one combining-leader admission batch (all four stages).")),
      submitted_(&metrics.counter("themis_tx_submitted_total",
          "Transaction admission attempts (RPC + wire relay).")),
      accepted_(&metrics.counter("themis_tx_accepted_total",
          "Transactions admitted into the pool.")),
      rejected_(&metrics.counter("themis_tx_rejected_total",
          "Transactions that failed an admission check.")),
      duplicate_(&metrics.counter("themis_tx_duplicate_total",
          "Transactions already pending or confirmed.")) {}

std::vector<TxAdmit> TxAdmission::admit(
    const std::vector<ledger::SignedTransaction>& stxs,
    std::uint64_t source_session) {
  std::vector<Request> requests;
  requests.reserve(stxs.size());
  for (const auto& stx : stxs) requests.push_back({&stx, source_session});
  if (!requests.empty()) settle(requests);
  std::vector<TxAdmit> verdicts;
  verdicts.reserve(requests.size());
  for (const Request& r : requests) verdicts.push_back(r.result);
  return verdicts;
}

TxAdmission::Counts TxAdmission::counts() const {
  return Counts{submitted_->get(), accepted_->get(), rejected_->get(),
                duplicate_->get()};
}

void TxAdmission::settle(std::vector<Request>& requests) {
  // Stamp before parking so the verify-stage latency includes combining-queue
  // wait (tx.id() is cached on the transaction; no hashing here).
  for (const Request& r : requests) {
    stages_.stamp(r.stx->tx.id(), TxStage::submitted);
  }
  std::unique_lock<std::mutex> qlock(mu_);
  for (Request& r : requests) queue_.push_back(&r);
  if (leader_active_) {
    // A leader is draining the queue; it will settle these requests too.
    cv_.wait(qlock, [&] {
      return std::all_of(requests.begin(), requests.end(),
                         [](const Request& r) { return r.done; });
    });
    return;
  }

  // Become the leader: drain the queue in batches until it is empty.  The
  // leader's own requests ride in the first batches; leadership is released
  // only under mu_ so no enqueuer can slip between the final empty-check and
  // the release and wait forever.
  leader_active_ = true;
  std::vector<Request*> batch;
  while (!queue_.empty()) {
    const auto n = static_cast<std::ptrdiff_t>(
        std::min(queue_.size(), kAdmitBatchMax));
    batch.assign(queue_.begin(), queue_.begin() + n);
    queue_.erase(queue_.begin(), queue_.begin() + n);
    qlock.unlock();
    process_batch(batch);
    qlock.lock();
    for (Request* r : batch) r->done = true;
    cv_.notify_all();
  }
  leader_active_ = false;
}

void TxAdmission::process_batch(const std::vector<Request*>& batch) {
  obs::live::ScopedTimer timer(batch_seconds_);
  // Stages 1 and 2, no locks: the key registry is immutable.  One
  // random-linear-combination check covers the batch; if it fails, per-item
  // verification charges only the forged items.
  std::vector<Request*> checking;
  std::vector<crypto::BatchVerifyItem> items;
  for (Request* r : batch) {
    if (const auto pub = keys_->lookup(r->stx->tx.sender())) {
      checking.push_back(r);
      items.push_back({*pub, r->stx->tx.id(), r->stx->signature});
    } else {
      r->result = TxAdmit::unknown_sender;
    }
  }
  if (!checking.empty() && !crypto::verify_batch(items)) {
    for (std::size_t i = 0; i < checking.size(); ++i) {
      if (!crypto::verify(items[i].pub, items[i].msg, items[i].sig)) {
        checking[i]->result = TxAdmit::bad_signature;
      }
    }
  }
  for (const Request* r : checking) {
    if (r->result == TxAdmit::accepted) stages_.stamp(r->stx->tx.id(), TxStage::verified);
  }

  stateful_(batch);
  for (const Request* r : batch) {
    submitted_->inc();
    const TxAdmit v = r->result;
    if (v == TxAdmit::accepted) {
      accepted_->inc();
    } else if (v == TxAdmit::duplicate || v == TxAdmit::known_confirmed) {
      duplicate_->inc();
    } else {
      rejected_->inc();
    }
  }
  publish_(batch);
}

}  // namespace themis::p2p
