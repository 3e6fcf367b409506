// JSON-RPC gateway: the client-facing surface of a consensus node.
//
// Translates HTTP requests into P2pNode calls.  The protocol is JSON-RPC
// 2.0-shaped: POST / with {"jsonrpc":"2.0","id":...,"method":...,"params":{}}
// answers {"result":...} or {"error":{"code","message"}} with the standard
// codes (-32700 parse error, -32600 invalid request, -32601 method not
// found, -32602 invalid params) plus application errors for rejected
// transactions.  GET /status and GET /metrics mirror the same-named methods
// for curl-friendly inspection.
//
// Methods:
//   submit_tx   {"raw": "<hex of 576-byte signed tx>"}  — pre-signed, or
//               {"sender":N,"to":N,"amount":N,"memo"?:s,"nonce"?:N}
//               (signed server-side with the consortium key; nonce defaults
//               to the node's next-nonce hint)  -> {"id", "status"}
//   submit_txs  {"txs": [<submit_tx params>, ...]} (<=512) — one
//               admission pass for the whole array
//               -> {"results": [{"id","status","nonce"}, ...]} in order
//   get_tx      {"id": "<hex>"}      -> state / block / confirmations / tx
//   get_txs     {"ids": ["<hex>", ...]} (<=4096)
//               -> {"states": ["unknown"|"pending"|"confirmed", ...]}
//   get_block   {"hash": "<hex>"} or {"height": N} -> header + tx ids
//   get_head    {}                   -> {"hash", "height"}
//   get_balance {"account": N}       -> {"balance", "next_nonce"}
//   get_checkpoint {"height"?: N}    -> finality certificate at the given
//               checkpoint height (latest when omitted): height / block /
//               epoch / backend / voters plus the raw hex encoding for
//               offline verification (themis-cli checkpoint)
//   status      {}                   -> node summary (head, peers, pool, ...)
//   metrics     {}                   -> the /metrics document below
//
// Monitoring endpoints (GET):
//   /status        — node summary (mirrors the status method)
//   /metrics       — JSON metrics (chain/tx/p2p/finality/rpc/stages/health),
//                    for tooling that already speaks this shape (themis-cli
//                    watch, themis-noded --report)
//   /metrics.prom  — Prometheus text exposition 0.0.4 of the node's live
//                    registry (counters, gauges, cumulative histograms)
//   /health        — readiness probe: 200 when started and peer-connected
//                    (or standalone), 503 otherwise; body carries uptime,
//                    peers and height
//
// The gateway is stateless and thread-safe: HttpServer calls handle() on
// every connection's thread; every node interaction goes through P2pNode's
// own synchronized API.  Request accounting is mutex-free: per-method request /
// error counters and latency histograms live in the node's live registry
// (registered once at construction, bumped via cached pointers), so one
// scrape of /metrics.prom covers the RPC layer too.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/json.h"
#include "obs/live/registry.h"
#include "p2p/node.h"
#include "rpc/http_server.h"

namespace themis::rpc {

class Gateway {
 public:
  /// Registers the rpc metric families in node.live_registry().
  explicit Gateway(p2p::P2pNode& node);

  /// HttpServer handler: dispatches one HTTP request.
  HttpResponse handle(const HttpRequest& request);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;  ///< responses carrying a JSON-RPC error
  };
  Stats stats() const;

  /// The GET /metrics document (also themis-noded --report): ChainStats,
  /// PeerManager::Stats, finality, rpc, tx-stage latencies, health.
  Json metrics() const;

 private:
  /// Fixed method table: the hot path resolves the method name to a slot
  /// once and bumps cached pointers — no per-request map or mutex.
  enum class Method : std::size_t {
    submit_tx = 0,
    submit_txs,
    get_tx,
    get_txs,
    get_block,
    get_head,
    get_balance,
    get_checkpoint,
    status,
    metrics,
    other,  ///< unknown / unparseable method names
  };
  static constexpr std::size_t kMethodCount = 11;
  static Method method_of(const std::string& name);

  struct MethodMetrics {
    const char* name = "";
    obs::live::Counter* requests = nullptr;
    obs::live::Counter* errors = nullptr;
    obs::live::Histogram* latency = nullptr;
  };

  Json dispatch(Method method, const Json& params);
  void note_error(Method method);
  HttpResponse health_response() const;

  /// Build one SignedTransaction from a submit spec ({"raw"} or structured
  /// {"sender","to","amount",...}); throws RpcError on malformed input.
  ledger::SignedTransaction build_tx(const Json& spec);

  Json rpc_submit_tx(const Json& params);
  Json rpc_submit_txs(const Json& params);
  Json rpc_get_tx(const Json& params);
  Json rpc_get_txs(const Json& params);
  Json rpc_get_block(const Json& params);
  Json rpc_get_head();
  Json rpc_get_balance(const Json& params);
  Json rpc_get_checkpoint(const Json& params);
  Json rpc_status();

  p2p::P2pNode& node_;
  std::array<MethodMetrics, kMethodCount> methods_{};
  obs::live::Counter* total_requests_ = nullptr;
  obs::live::Counter* total_errors_ = nullptr;
};

}  // namespace themis::rpc
