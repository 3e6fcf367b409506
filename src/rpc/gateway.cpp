#include "rpc/gateway.h"

#include <chrono>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"
#include "obs/live/prometheus.h"
#include "obs/live/stage_tracker.h"
#include "state/ledger_state.h"
#include "state/transfer.h"

namespace themis::rpc {

namespace {

// JSON-RPC 2.0 error codes.
constexpr int kParseError = -32700;
constexpr int kInvalidRequest = -32600;
constexpr int kMethodNotFound = -32601;
constexpr int kInvalidParams = -32602;
/// Application error: the node rejected the transaction (message carries
/// the TxAdmit reason).
constexpr int kTxRejected = -32000;

struct RpcError {
  int code;
  std::string message;
};

[[noreturn]] void fail(int code, std::string message) {
  throw RpcError{code, std::move(message)};
}

Json error_response(const Json& id, int code, const std::string& message) {
  Json error;
  error.set("code", static_cast<std::int64_t>(code));
  error.set("message", message);
  Json response;
  response.set("jsonrpc", "2.0");
  response.set("id", id);
  response.set("error", std::move(error));
  return response;
}

Json result_response(const Json& id, Json result) {
  Json response;
  response.set("jsonrpc", "2.0");
  response.set("id", id);
  response.set("result", std::move(result));
  return response;
}

/// Ids span 32 bits.
constexpr std::uint64_t kIdSpace = std::uint64_t{1} << 32;

/// Integer parameter `key` as an id below `limit`; rejected rather than
/// narrowed, so 2^32 + 7 never names account 7.
ledger::NodeId id_param(const Json& params, const std::string& key,
                        std::uint64_t limit) {
  const std::uint64_t id = params[key].as_u64();
  if (id >= limit) {
    fail(kInvalidParams, key + " must be below " + std::to_string(limit));
  }
  return static_cast<ledger::NodeId>(id);
}

ledger::TxId txid_param(const Json& params, const std::string& key) {
  if (!params[key].is_string()) fail(kInvalidParams, key + " must be a hex string");
  try {
    return hash_from_hex(params[key].as_string());
  } catch (const std::exception&) {
    fail(kInvalidParams, key + " is not a 64-char hex id");
  }
}

Json tx_to_json(const ledger::Transaction& tx) {
  Json out;
  out.set("id", to_hex(tx.id()));
  out.set("sender", static_cast<std::uint64_t>(tx.sender()));
  out.set("nonce", tx.nonce());
  out.set("timestamp_nanos", static_cast<std::int64_t>(tx.timestamp_nanos()));
  if (const auto transfer = state::transfer_of(tx); transfer.has_value()) {
    out.set("to", static_cast<std::uint64_t>(transfer->to));
    // Mirror build_tx: u64-range amounts stay JSON numbers, larger ones are
    // exact decimal strings.
    if (transfer->amount.fits_u64()) {
      out.set("amount", transfer->amount.lo());
    } else {
      out.set("amount", transfer->amount.to_decimal());
    }
    if (!transfer->memo.empty()) {
      out.set("memo", std::string(transfer->memo.begin(), transfer->memo.end()));
    }
  }
  return out;
}

const char* state_name(p2p::P2pNode::TxStatusInfo::State state) {
  switch (state) {
    case p2p::P2pNode::TxStatusInfo::State::pending: return "pending";
    case p2p::P2pNode::TxStatusInfo::State::confirmed: return "confirmed";
    default: return "unknown";
  }
}

Json block_to_json(const p2p::P2pNode::BlockInfo& info) {
  const ledger::Block& block = *info.block;
  Json out;
  out.set("hash", to_hex(block.id()));
  out.set("height", block.header().height);
  out.set("prev", to_hex(block.header().prev));
  out.set("producer", static_cast<std::uint64_t>(block.header().producer));
  out.set("timestamp_nanos",
          static_cast<std::int64_t>(block.header().timestamp_nanos));
  out.set("tx_count", static_cast<std::uint64_t>(block.header().tx_count));
  out.set("on_main_chain", info.on_main_chain);
  out.set("confirmations", info.confirmations);
  Json::Array txs;
  txs.reserve(block.transactions().size());
  for (const ledger::Transaction& tx : block.transactions()) {
    txs.push_back(Json(to_hex(tx.id())));
  }
  out.set("txs", Json(std::move(txs)));
  return out;
}

/// Method names in Gateway::Method order.  The last slot counts unknown
/// names; "other" itself is not callable.
constexpr const char* kMethodNames[] = {
    "submit_tx", "submit_txs",  "get_tx",         "get_txs",
    "get_block", "get_head",    "get_balance",    "get_checkpoint",
    "status",    "metrics",     "other"};

}  // namespace

Gateway::Gateway(p2p::P2pNode& node) : node_(node) {
  static_assert(std::size(kMethodNames) == kMethodCount);
  obs::live::Registry& r = node_.live_registry();
  for (std::size_t i = 0; i < kMethodCount; ++i) {
    MethodMetrics& m = methods_[i];
    m.name = kMethodNames[i];
    const std::string label = std::string("{method=\"") + m.name + "\"}";
    m.requests = &r.counter(std::string("themis_rpc_requests_total") + label,
                            "JSON-RPC requests by method.");
    m.errors = &r.counter(std::string("themis_rpc_errors_total") + label,
                          "JSON-RPC error responses by method.");
    m.latency = &r.histogram(std::string("themis_rpc_seconds") + label,
                             "JSON-RPC dispatch latency by method.");
  }
  total_requests_ =
      &r.counter("themis_rpc_requests_all_total", "JSON-RPC requests, total.");
  total_errors_ = &r.counter("themis_rpc_errors_all_total",
                             "JSON-RPC error responses, total.");
}

Gateway::Method Gateway::method_of(const std::string& name) {
  for (std::size_t i = 0; i + 1 < kMethodCount; ++i) {
    if (name == kMethodNames[i]) return static_cast<Method>(i);
  }
  return Method::other;
}

HttpResponse Gateway::health_response() const {
  const bool ready = node_.ready();
  HttpResponse response;
  response.status = ready ? 200 : 503;
  Json out;
  out.set("status", ready ? "ok" : "unavailable");
  out.set("uptime_seconds", node_.uptime_seconds());
  out.set("peers", node_.ready_peer_count());
  out.set("height", node_.head_height());
  response.body = out.dump();
  return response;
}

HttpResponse Gateway::handle(const HttpRequest& request) {
  // curl-friendly GET mirrors + monitoring endpoints.
  if (request.method == "GET") {
    HttpResponse response;
    if (request.target == "/status") {
      response.body = rpc_status().dump();
    } else if (request.target == "/metrics") {
      response.body = metrics().dump();
    } else if (request.target == "/metrics.prom") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::live::render_prometheus(node_.live_registry());
    } else if (request.target == "/health") {
      response = health_response();
    } else {
      response.status = 404;
      response.body = "{\"error\":\"not found\"}";
    }
    return response;
  }
  if (request.method != "POST") {
    HttpResponse response;
    response.status = 405;
    response.body = "{\"error\":\"method not allowed\"}";
    return response;
  }

  // JSON-RPC over POST.  Errors are JSON-RPC errors with HTTP 200, per the
  // convention (the HTTP layer succeeded; the call did not).
  HttpResponse response;
  Json id;  // null until we manage to parse one
  Json body;
  try {
    body = Json::parse(request.body);
  } catch (const JsonError& e) {
    response.body =
        error_response(id, kParseError, std::string("parse error: ") + e.what())
            .dump();
    note_error(Method::other);
    return response;
  }
  if (!body.is_object() || !body["method"].is_string()) {
    response.body =
        error_response(body["id"], kInvalidRequest,
                       "expected {\"method\": ..., \"params\": ...}")
            .dump();
    note_error(Method::other);
    return response;
  }
  id = body["id"];
  const Method slot = method_of(body["method"].as_string());
  MethodMetrics& metrics = methods_[static_cast<std::size_t>(slot)];
  metrics.requests->inc();
  total_requests_->inc();
  obs::live::ScopedTimer timer(metrics.latency);
  try {
    response.body = result_response(id, dispatch(slot, body["params"])).dump();
  } catch (const RpcError& e) {
    response.body = error_response(id, e.code, e.message).dump();
    note_error(slot);
  } catch (const JsonError& e) {
    response.body =
        error_response(id, kInvalidParams, std::string("invalid params: ") + e.what())
            .dump();
    note_error(slot);
  }
  return response;
}

Json Gateway::dispatch(Method method, const Json& params) {
  switch (method) {
    case Method::submit_tx: return rpc_submit_tx(params);
    case Method::submit_txs: return rpc_submit_txs(params);
    case Method::get_tx: return rpc_get_tx(params);
    case Method::get_txs: return rpc_get_txs(params);
    case Method::get_block: return rpc_get_block(params);
    case Method::get_head: return rpc_get_head();
    case Method::get_balance: return rpc_get_balance(params);
    case Method::get_checkpoint: return rpc_get_checkpoint(params);
    case Method::status: return rpc_status();
    case Method::metrics: return metrics();
    case Method::other: break;
  }
  fail(kMethodNotFound, "method not found");
}

ledger::SignedTransaction Gateway::build_tx(const Json& spec) {
  if (!spec.is_object()) fail(kInvalidParams, "params must be an object");

  ledger::SignedTransaction stx;
  if (spec.has("raw")) {
    // Pre-signed 576-byte transaction, hex-encoded.
    if (!spec["raw"].is_string()) fail(kInvalidParams, "raw must be hex");
    Bytes bytes;
    try {
      bytes = from_hex(spec["raw"].as_string());
    } catch (const std::exception&) {
      fail(kInvalidParams, "raw is not valid hex");
    }
    try {
      stx = ledger::SignedTransaction::decode(bytes);
    } catch (const DecodeError& e) {
      fail(kInvalidParams, std::string("malformed transaction: ") + e.what());
    }
  } else {
    // Structured transfer, signed here with the consortium key (the gateway
    // runs inside the consortium node, so it holds the deterministic keys).
    if (!spec["sender"].is_number() || !spec["to"].is_number() ||
        (!spec["amount"].is_number() && !spec["amount"].is_string())) {
      fail(kInvalidParams, "need sender, to, amount (or raw)");
    }
    const ledger::NodeId sender = id_param(spec, "sender", kIdSpace);
    state::Transfer transfer;
    transfer.to = id_param(spec, "to", state::kMaxAccounts);
    // Amounts above 2^64 - 1 do not fit a JSON number our codec accepts
    // exactly, so large amounts travel as decimal strings.  from_decimal is
    // strict: digits only, value < 2^128.
    if (spec["amount"].is_string()) {
      const auto amount = UInt128::from_decimal(spec["amount"].as_string());
      if (!amount.has_value()) {
        fail(kInvalidParams, "amount must be a decimal string < 2^128");
      }
      transfer.amount = *amount;
    } else {
      transfer.amount = spec["amount"].as_u64();
    }
    if (spec.has("memo")) {
      const std::string& memo = spec["memo"].as_string();
      transfer.memo.assign(memo.begin(), memo.end());
    }
    const std::uint64_t nonce = spec.has("nonce")
                                    ? spec["nonce"].as_u64()
                                    : node_.next_nonce_hint(sender);
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    try {
      stx = ledger::sign_transaction(
          state::make_transfer_tx(sender, nonce, now, transfer));
    } catch (const std::exception& e) {
      fail(kInvalidParams, std::string("cannot build transaction: ") + e.what());
    }
  }
  return stx;
}

Json Gateway::rpc_submit_tx(const Json& params) {
  const ledger::SignedTransaction stx = build_tx(params);
  const p2p::TxAdmit admit = node_.submit_transaction(stx);
  if (admit != p2p::TxAdmit::accepted &&
      admit != p2p::TxAdmit::duplicate) {
    fail(kTxRejected, std::string(to_string(admit)));
  }
  Json out;
  out.set("id", to_hex(stx.tx.id()));
  out.set("status", std::string(to_string(admit)));
  out.set("nonce", stx.tx.nonce());
  return out;
}

Json Gateway::rpc_submit_txs(const Json& params) {
  // Batched submission: every transaction in the array is built (signed
  // server-side or decoded from raw) and the whole vector enters admission
  // as one pass on this connection's thread — one Schnorr verification
  // batch and one stateful lock hold per kAdmitBatchMax transfers — instead
  // of one HTTP round trip per transfer.
  // Per-item verdicts come back in request order; a rejection does not fail
  // the call, so a client can retry just the rejected entries.
  if (!params["txs"].is_array()) fail(kInvalidParams, "txs must be an array");
  const Json::Array& specs = params["txs"].as_array();
  constexpr std::size_t kMaxSubmitTxs = 512;
  if (specs.size() > kMaxSubmitTxs) {
    fail(kInvalidParams, "at most 512 txs per submit_txs call");
  }
  std::vector<ledger::SignedTransaction> stxs;
  stxs.reserve(specs.size());
  for (const Json& spec : specs) stxs.push_back(build_tx(spec));

  const std::vector<p2p::TxAdmit> verdicts = node_.submit_transactions(stxs);
  Json::Array results;
  results.reserve(stxs.size());
  for (std::size_t i = 0; i < stxs.size(); ++i) {
    Json entry;
    entry.set("id", to_hex(stxs[i].tx.id()));
    entry.set("status", std::string(to_string(verdicts[i])));
    entry.set("nonce", stxs[i].tx.nonce());
    results.push_back(std::move(entry));
  }
  Json out;
  out.set("results", Json(std::move(results)));
  return out;
}

Json Gateway::rpc_get_tx(const Json& params) {
  const ledger::TxId id = txid_param(params, "id");
  const auto status = node_.tx_status(id);
  Json out;
  out.set("state", state_name(status.state));
  if (status.block.has_value()) {
    out.set("block", to_hex(*status.block));
    out.set("block_height", status.block_height);
    out.set("confirmations", status.confirmations);
  }
  if (status.tx.has_value()) out.set("tx", tx_to_json(*status.tx));
  // Per-tx lifecycle stamps while the stage tracker remembers the id:
  // monotonic nanoseconds since an arbitrary per-process epoch, so deltas
  // between stages are meaningful but absolute values are not.
  if (status.stages.has_value()) {
    Json stages;
    for (std::size_t s = 0; s < obs::live::kTxStageCount; ++s) {
      if ((*status.stages)[s] == 0) continue;
      stages.set(
          std::string(obs::live::to_string(static_cast<obs::live::TxStage>(s))),
          Json((*status.stages)[s]));
    }
    out.set("stages", std::move(stages));
  }
  return out;
}

Json Gateway::rpc_get_txs(const Json& params) {
  // Batched status poll: one request resolves many ids, so a client waiting
  // on hundreds of submissions costs one HTTP round trip per sweep instead
  // of one per transaction.  Response states align with the request order.
  if (!params["ids"].is_array()) fail(kInvalidParams, "ids must be an array");
  const Json::Array& ids = params["ids"].as_array();
  constexpr std::size_t kMaxStatusIds = 4096;
  if (ids.size() > kMaxStatusIds) {
    fail(kInvalidParams, "at most 4096 ids per get_txs call");
  }
  std::vector<ledger::TxId> parsed;
  parsed.reserve(ids.size());
  for (const Json& raw : ids) {
    if (!raw.is_string()) fail(kInvalidParams, "ids must be hex strings");
    try {
      parsed.push_back(hash_from_hex(raw.as_string()));
    } catch (const std::exception&) {
      fail(kInvalidParams, "ids must be 64-char hex ids");
    }
  }
  // One consensus-lock hold answers the whole sweep.
  Json::Array states;
  states.reserve(parsed.size());
  for (const auto state : node_.tx_states(parsed)) {
    states.push_back(Json(state_name(state)));
  }
  Json out;
  out.set("states", Json(std::move(states)));
  return out;
}

Json Gateway::rpc_get_block(const Json& params) {
  std::optional<p2p::P2pNode::BlockInfo> info;
  if (params.has("hash")) {
    info = node_.block_info(txid_param(params, "hash"));
  } else if (params["height"].is_number()) {
    info = node_.block_info_at(params["height"].as_u64());
  } else {
    fail(kInvalidParams, "need hash or height");
  }
  if (!info.has_value()) fail(kTxRejected, "block not found");
  return block_to_json(*info);
}

Json Gateway::rpc_get_head() {
  const auto head = node_.head_info();
  return Json::object({{"hash", Json(to_hex(head.hash))},
                       {"height", Json(head.height)}});
}

Json Gateway::rpc_get_balance(const Json& params) {
  if (!params["account"].is_number()) {
    fail(kInvalidParams, "need account (node id)");
  }
  const ledger::NodeId account = id_param(params, "account", kIdSpace);
  Json out;
  out.set("account", static_cast<std::uint64_t>(account));
  // 128-bit balances travel as exact decimal strings: the JSON codec only
  // represents integers up to 64 bits without loss, and a double would
  // silently round anything past 2^53.
  if (params.has("prove") && params["prove"].is_bool() &&
      params["prove"].as_bool()) {
    const auto bp = node_.balance_proof(account);
    out.set("balance", bp.account.balance.to_decimal());
    out.set("next_nonce", bp.account.next_nonce);
    out.set("state_root", to_hex(bp.state_root));
    out.set("head", to_hex(bp.head));
    out.set("height", bp.height);
    Json proof;
    proof.set("available", bp.available);
    proof.set("page", static_cast<std::uint64_t>(bp.proof.page));
    proof.set("page_count", static_cast<std::uint64_t>(bp.proof.page_count));
    proof.set("page_bytes", to_hex(bp.proof.page_bytes));
    Json::Array steps;
    steps.reserve(bp.proof.steps.size());
    for (const crypto::MerkleStep& step : bp.proof.steps) {
      Json entry;
      entry.set("sibling", to_hex(step.sibling));
      entry.set("left", step.sibling_on_left);
      steps.push_back(std::move(entry));
    }
    proof.set("steps", Json(std::move(steps)));
    out.set("proof", std::move(proof));
    return out;
  }
  const auto info = node_.account_info(account);
  out.set("balance", info.balance.to_decimal());
  out.set("next_nonce", info.next_nonce);
  return out;
}

Json Gateway::rpc_get_checkpoint(const Json& params) {
  const auto fin = node_.finality_info();
  if (!fin.enabled) fail(kTxRejected, "finality overlay disabled");
  std::uint64_t height = fin.finalized_height;
  if (params.is_object() && params.has("height")) {
    if (!params["height"].is_number()) fail(kInvalidParams, "height must be a number");
    height = params["height"].as_u64();
  }
  const auto cert = node_.checkpoint_certificate(height);
  if (!cert.has_value()) fail(kTxRejected, "no certificate at that height");
  Json out;
  out.set("height", cert->height);
  out.set("block", to_hex(cert->block));
  out.set("epoch", cert->epoch);
  out.set("backend", static_cast<std::uint64_t>(cert->backend));
  Json::Array voters;
  voters.reserve(cert->voters.size());
  for (const ledger::NodeId voter : cert->voters) {
    voters.push_back(Json(static_cast<std::uint64_t>(voter)));
  }
  out.set("voters", Json(std::move(voters)));
  out.set("aggregate", to_hex(cert->aggregate));
  // Full wire encoding so clients can re-verify offline (themis-cli
  // checkpoint) without reassembling the certificate field by field.
  out.set("raw", to_hex(cert->encode()));
  return out;
}

Json Gateway::rpc_status() {
  const auto chain = node_.chain_stats();
  // One head snapshot, so hash, height, root and supply belong together.
  const auto head = node_.head_info();
  Json out;
  out.set("node", static_cast<std::uint64_t>(node_.config().id));
  out.set("head", to_hex(head.hash));
  out.set("height", head.height);
  out.set("peers", node_.ready_peer_count());
  out.set("pool_depth", node_.pool_depth());
  out.set("mining", node_.mining());
  out.set("tree_blocks", node_.tree_blocks());
  out.set("txs_confirmed", chain.txs_confirmed);
  out.set("state_root", to_hex(head.state_root));
  out.set("total_supply", head.total_supply.to_decimal());
  out.set("snapshot_height", chain.snapshot_height);
  out.set("snapshots_written", chain.snapshots_written);
  out.set("blocks_pruned", chain.blocks_pruned);
  out.set("restored_from_snapshot", chain.restored_from_snapshot);
  const auto fin = node_.finality_info();
  out.set("finality_enabled", fin.enabled);
  out.set("finalized_height", fin.finalized_height);
  out.set("finality_lag", fin.lag);
  return out;
}

Json Gateway::metrics() const {
  const auto chain = node_.chain_stats();
  const auto transport = node_.transport_stats();
  Json out;
  out.set("chain", Json::object({
    {"height", Json(node_.head_height())},
    {"tree_blocks", Json(node_.tree_blocks())},
    {"store_blocks", Json(node_.store_blocks())},
    {"bodies_resident", Json(chain.bodies_resident)},
    {"store_replayed", Json(chain.store_replayed)},
    {"blocks_produced", Json(chain.blocks_produced)},
    {"template_refreshes", Json(chain.template_refreshes)},
    {"blocks_received", Json(chain.blocks_received)},
    {"blocks_rejected", Json(chain.blocks_rejected)},
    {"reorgs", Json(chain.reorgs)},
    {"snapshots_written", Json(chain.snapshots_written)},
    {"snapshot_height", Json(chain.snapshot_height)},
    {"blocks_pruned", Json(chain.blocks_pruned)},
    {"restored_from_snapshot", Json(chain.restored_from_snapshot)},
  }));
  out.set("tx", Json::object({
    {"submitted", Json(chain.txs_submitted)},
    {"accepted", Json(chain.txs_accepted)},
    {"rejected", Json(chain.txs_rejected)},
    {"duplicate", Json(chain.txs_duplicate)},
    {"relayed", Json(chain.txs_relayed)},
    {"received", Json(chain.txs_received)},
    {"confirmed", Json(chain.txs_confirmed)},
    {"returned", Json(chain.txs_returned)},
    {"purged", Json(chain.txs_purged)},
    {"indexed", Json(chain.txs_indexed)},
    {"invs_received", Json(chain.tx_invs_received)},
    {"invs_redundant", Json(chain.tx_invs_redundant)},
    {"pool_depth", Json(node_.pool_depth())},
  }));
  out.set("p2p", Json::object({
    {"bytes_in", Json(transport.bytes_in)},
    {"bytes_out", Json(transport.bytes_out)},
    {"peers", Json(node_.ready_peer_count())},
    {"connections_accepted", Json(transport.connections_accepted)},
    {"dials_attempted", Json(transport.dials_attempted)},
    {"dials_failed", Json(transport.dials_failed)},
    {"reconnects", Json(transport.reconnects)},
    {"handshakes_rejected", Json(transport.handshakes_rejected)},
    {"protocol_errors", Json(transport.protocol_errors)},
    {"disconnects", Json(transport.disconnects)},
    {"pings_sent", Json(transport.pings_sent)},
    {"pongs_received", Json(transport.pongs_received)},
    {"ping_timeouts", Json(transport.ping_timeouts)},
    {"invs_received", Json(chain.invs_received)},
    {"invs_redundant", Json(chain.invs_redundant)},
    {"sync_rounds", Json(chain.sync_rounds)},
    {"requests_in_flight", Json(chain.requests_in_flight)},
  }));
  const auto fin = node_.finality_info();
  out.set("finality", Json::object({
    {"enabled", Json(fin.enabled)},
    {"interval", Json(fin.interval)},
    {"finalized_height", Json(fin.finalized_height)},
    {"lag", Json(fin.lag)},
    {"latest_votes", Json(static_cast<std::uint64_t>(fin.latest_votes))},
    {"votes_sent", Json(chain.ckpt_votes_sent)},
    {"votes_received", Json(chain.ckpt_votes_received)},
    {"votes_accepted", Json(chain.ckpt_votes_accepted)},
    {"votes_rejected", Json(chain.ckpt_votes_rejected)},
    {"certificates", Json(chain.ckpt_certs_formed)},
    {"reorgs_refused", Json(chain.reorgs_refused_finality)},
  }));
  Json methods = Json::object({});  // {} even before any request
  for (const MethodMetrics& m : methods_) {
    if (m.requests->get() == 0 && m.errors->get() == 0) continue;
    const obs::live::Histogram::Snapshot snap = m.latency->snapshot();
    methods.set(m.name, Json::object({
      {"requests", Json(m.requests->get())},
      {"errors", Json(m.errors->get())},
      {"p50_ms", Json(snap.quantile_ns(0.50) / 1e6)},
      {"p99_ms", Json(snap.quantile_ns(0.99) / 1e6)},
    }));
  }
  const Stats rpc = stats();
  out.set("rpc", Json::object({
    {"requests", Json(rpc.requests)},
    {"errors", Json(rpc.errors)},
    {"methods", std::move(methods)},
  }));
  // Tx-lifecycle stage latencies (see obs/live/stage_tracker.h): count plus
  // estimated p50/p99 per transition, in milliseconds.
  Json stages;
  for (const auto& h : node_.live_registry().histogram_samples()) {
    std::string_view key;
    if (h.name == "themis_tx_stage_verify_seconds") key = "verify";
    else if (h.name == "themis_tx_stage_pool_seconds") key = "pool";
    else if (h.name == "themis_tx_stage_inclusion_seconds") key = "inclusion";
    else if (h.name == "themis_tx_stage_confirm_seconds") key = "confirm";
    else if (h.name == "themis_tx_e2e_seconds") key = "e2e";
    else continue;
    stages.set(std::string(key), Json::object({
      {"count", Json(h.snap.total)},
      {"mean_ms", Json(h.snap.mean_ns() / 1e6)},
      {"p50_ms", Json(h.snap.quantile_ns(0.50) / 1e6)},
      {"p99_ms", Json(h.snap.quantile_ns(0.99) / 1e6)},
    }));
  }
  out.set("stages", std::move(stages));
  out.set("health", Json::object({
    {"ready", Json(node_.ready())},
    {"uptime_seconds", Json(node_.uptime_seconds())},
  }));
  return out;
}

void Gateway::note_error(Method method) {
  methods_[static_cast<std::size_t>(method)].errors->inc();
  total_errors_->inc();
}

Gateway::Stats Gateway::stats() const {
  return Stats{total_requests_->get(), total_errors_->get()};
}

}  // namespace themis::rpc
