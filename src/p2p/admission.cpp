#include "p2p/admission.h"

#include <algorithm>

#include "crypto/schnorr.h"

namespace themis::p2p {

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
                         obs::live::Registry& metrics, Stage stateful,
                         Stage publish)
    : keys_(std::move(keys)),
      stateful_(std::move(stateful)),
      publish_(std::move(publish)),
      batch_seconds_(&metrics.histogram("themis_admit_batch_seconds",
          "Latency of one admission batch on the caller's thread (all four "
          "stages).")),
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
  // One submitted time for the whole call, so a later chunk's verify-stage
  // latency includes the earlier chunks it waited behind.
  const std::uint64_t now = obs::live::monotonic_ns();
  std::vector<Request> requests;
  requests.reserve(stxs.size());
  for (const auto& stx : stxs) {
    requests.push_back({&stx, source_session, TxAdmit::accepted, now});
  }
  const std::span<Request> all(requests);
  for (std::size_t i = 0; i < all.size(); i += kAdmitBatchMax) {
    process_batch(all.subspan(i, std::min(kAdmitBatchMax, all.size() - i)));
  }
  std::vector<TxAdmit> verdicts;
  verdicts.reserve(requests.size());
  for (const Request& r : requests) verdicts.push_back(r.result);
  return verdicts;
}

TxAdmission::Counts TxAdmission::counts() const {
  return Counts{submitted_->get(), accepted_->get(), rejected_->get(),
                duplicate_->get()};
}

void TxAdmission::process_batch(std::span<Request> batch) {
  obs::live::ScopedTimer timer(batch_seconds_);
  // Stages 1 and 2, no locks: the key registry is immutable.  One
  // random-linear-combination check covers the batch; if it fails, per-item
  // verification charges only the forged items.
  std::vector<Request*> checking;
  std::vector<crypto::BatchVerifyItem> items;
  for (Request& r : batch) {
    if (const auto pub = keys_->lookup(r.stx->tx.sender())) {
      checking.push_back(&r);
      items.push_back({*pub, r.stx->tx.id(), r.stx->signature});
    } else {
      r.result = TxAdmit::unknown_sender;
    }
  }
  if (!checking.empty() && !crypto::verify_batch(items)) {
    for (std::size_t i = 0; i < checking.size(); ++i) {
      if (!crypto::verify(items[i].pub, items[i].msg, items[i].sig)) {
        checking[i]->result = TxAdmit::bad_signature;
      }
    }
  }
  const std::uint64_t verified = obs::live::monotonic_ns();
  for (Request* r : checking) {
    if (r->result == TxAdmit::accepted) r->verified_ns = verified;
  }

  stateful_(batch);
  for (const Request& r : batch) {
    submitted_->inc();
    const TxAdmit v = r.result;
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
