// themis-cli: command-line client for a themis-noded JSON-RPC endpoint.
//
//   themis-cli submit --from=1 --to=2 --amount=50 --node=127.0.0.1:9200
//   themis-cli submit --from=1 --to=2 --amount=50 --wait   # poll until confirmed
//   themis-cli tx --id=<64-char hex>
//   themis-cli balance --account=2
//   themis-cli head | status | metrics
//   themis-cli block --height=3   (or --hash=<hex>)
//
// Every command prints the JSON-RPC result (or error) as one JSON line on
// stdout.  Exit codes: 0 ok, 1 transport failure, 2 usage error, 3 the node
// answered with a JSON-RPC error (e.g. a rejected transaction).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/bytes.h"
#include "common/json.h"
#include "common/uint128.h"
#include "finality/aggregation.h"
#include "rpc/http_client.h"
#include "state/authstate/merkle_state.h"

namespace {

constexpr std::string_view kUsage =
    "themis-cli <command> [flags]\n"
    "commands:\n"
    "  submit    --from=<id> --to=<id> --amount=<n> [--memo=<s>] [--nonce=<n>]\n"
    "            or --raw=<hex of signed tx>; add --wait to poll until the\n"
    "            transaction is confirmed (--timeout=<sec>, default 30)\n"
    "  tx        --id=<hex>          transaction status\n"
    "  balance   --account=<id>      balance + next nonce; add --prove to\n"
    "            fetch a Merkle inclusion proof and verify it locally\n"
    "            against the head state root (prints VERIFIED or FAILED)\n"
    "  head                          current head hash + height\n"
    "  block     --hash=<hex> | --height=<n>\n"
    "  checkpoint [--height=<n>]     finality certificate at a checkpoint\n"
    "            height (latest when omitted); add --validators=<n> to\n"
    "            re-verify the aggregate signature offline against the\n"
    "            deterministic consortium keys (prints VERIFIED or FAILED)\n"
    "  status                        node summary\n"
    "  metrics                       chain/tx/p2p/rpc counters\n"
    "  watch     live dashboard: polls /metrics and prints height, pool\n"
    "            depth, peers, confirmed-TPS deltas and stage p50/p99 once\n"
    "            per tick (--interval=<sec>, default 2; --count=<n> ticks,\n"
    "            0 = until interrupted)\n"
    "common flags:\n"
    "  --node=<host:port>   RPC endpoint (default 127.0.0.1:9200)\n";

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 9200;
};

Endpoint parse_endpoint(std::string_view spec) {
  Endpoint ep;
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos) {
    ep.host = std::string(spec);
  } else {
    ep.host = std::string(spec.substr(0, colon));
    ep.port = static_cast<std::uint16_t>(
        std::strtoul(std::string(spec.substr(colon + 1)).c_str(), nullptr, 10));
  }
  return ep;
}

/// One JSON-RPC call; exits the process on transport failure.
themis::Json call(themis::rpc::HttpClient& client, const std::string& method,
                  themis::Json params) {
  themis::Json request;
  request.set("jsonrpc", "2.0");
  request.set("id", std::uint64_t{1});
  request.set("method", method);
  request.set("params", std::move(params));
  const auto result = client.post("/", request.dump());
  if (!result.has_value()) {
    std::cerr << "error: cannot reach node\n";
    std::exit(1);
  }
  try {
    return themis::Json::parse(result->body);
  } catch (const themis::JsonError& e) {
    std::cerr << "error: bad response: " << e.what() << "\n";
    std::exit(1);
  }
}

/// Print the result (or error) and return the process exit code.
int finish(const themis::Json& response) {
  if (response.has("error")) {
    std::cout << response["error"].dump() << "\n";
    return 3;
  }
  std::cout << response["result"].dump() << "\n";
  return 0;
}

/// `watch`: poll GET /metrics and render one dashboard line per tick —
/// height, peers, pool depth, confirmed/submitted counters with per-second
/// deltas, and the verify/e2e stage latencies the node estimates from its
/// live histograms.  Designed to be greppable rather than a full-screen UI,
/// so it works under tee, CI logs and scripts alike.
int watch_loop(themis::rpc::HttpClient& client, std::uint64_t interval_sec,
               std::uint64_t count) {
  using themis::Json;
  bool have_prev = false;
  double prev_confirmed = 0.0;
  double prev_submitted = 0.0;
  auto prev_when = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 0; count == 0 || tick < count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval_sec));
    }
    const auto result = client.get("/metrics");
    if (!result.has_value()) {
      std::cerr << "error: cannot reach node\n";
      return 1;
    }
    try {
      const Json m = Json::parse(result->body);
      const auto now = std::chrono::steady_clock::now();
      const double confirmed =
          m["tx"]["confirmed"].is_number()
              ? static_cast<double>(m["tx"]["confirmed"].as_u64())
              : 0.0;
      const double submitted =
          m["tx"]["submitted"].is_number()
              ? static_cast<double>(m["tx"]["submitted"].as_u64())
              : 0.0;
      const double dt = std::chrono::duration<double>(now - prev_when).count();
      char tps[64] = "tps=-";
      if (have_prev && dt > 0) {
        std::snprintf(tps, sizeof(tps), "tps=%.1f sub/s=%.1f",
                      (confirmed - prev_confirmed) / dt,
                      (submitted - prev_submitted) / dt);
      }
      std::string stages;
      if (m["stages"].is_object()) {
        char buf[128];
        if (m["stages"]["verify"].is_object()) {
          std::snprintf(buf, sizeof(buf), " verify_p50=%.2fms",
                        m["stages"]["verify"]["p50_ms"].as_double());
          stages += buf;
        }
        if (m["stages"]["e2e"].is_object()) {
          std::snprintf(buf, sizeof(buf), " e2e_p50=%.0fms e2e_p99=%.0fms",
                        m["stages"]["e2e"]["p50_ms"].as_double(),
                        m["stages"]["e2e"]["p99_ms"].as_double());
          stages += buf;
        }
      }
      std::string finality;
      if (m["finality"].is_object() && m["finality"]["enabled"].is_bool() &&
          m["finality"]["enabled"].as_bool()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " fin=%llu lag=%llu",
                      static_cast<unsigned long long>(
                          m["finality"]["finalized_height"].as_u64()),
                      static_cast<unsigned long long>(
                          m["finality"]["lag"].as_u64()));
        finality = buf;
      }
      std::cout << "h=" << m["chain"]["height"].as_u64() << finality
                << " peers=" << m["p2p"]["peers"].as_u64()
                << " pool=" << m["tx"]["pool_depth"].as_u64()
                << " conf=" << static_cast<std::uint64_t>(confirmed)
                << " sub=" << static_cast<std::uint64_t>(submitted) << " "
                << tps << stages
                << " rpc_err=" << m["rpc"]["errors"].as_u64() << std::endl;
      have_prev = true;
      prev_confirmed = confirmed;
      prev_submitted = submitted;
      prev_when = now;
    } catch (const themis::JsonError& e) {
      std::cerr << "error: bad /metrics response: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace themis;

  if (argc < 2 || std::string_view(argv[1]) == "--help" ||
      std::string_view(argv[1]) == "-h") {
    std::cout << kUsage;
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  const bench::ArgParser parser(argc - 1, argv + 1);

  const Endpoint ep =
      parse_endpoint(parser.value("--node").value_or("127.0.0.1:9200"));
  rpc::HttpClient client(ep.host, ep.port);

  if (command == "submit") {
    Json params;
    if (const auto raw = parser.value("--raw")) {
      params.set("raw", std::string(*raw));
    } else {
      const auto from = parser.value("--from");
      const auto to = parser.value("--to");
      const auto amount = parser.value("--amount");
      if (!from || !to || !amount) {
        std::cerr << "error: submit needs --from, --to, --amount (or --raw)\n"
                  << kUsage;
        return 2;
      }
      params.set("sender", parser.value_u64("--from", 0));
      params.set("to", parser.value_u64("--to", 0));
      // Amounts past 2^64 - 1 travel as exact decimal strings (the server
      // accepts either form); anything that fits stays a JSON number.
      const auto amount128 = UInt128::from_decimal(*amount);
      if (!amount128.has_value()) {
        std::cerr << "error: --amount must be a decimal integer < 2^128\n";
        return 2;
      }
      if (amount128->fits_u64()) {
        params.set("amount", amount128->lo());
      } else {
        params.set("amount", std::string(*amount));
      }
      if (const auto memo = parser.value("--memo")) {
        params.set("memo", std::string(*memo));
      }
      if (parser.value("--nonce")) {
        params.set("nonce", parser.value_u64("--nonce", 0));
      }
    }
    const bool wait = parser.flag("--wait");
    const std::uint64_t timeout_sec = parser.value_u64("--timeout", 30);

    const Json response = call(client, "submit_tx", std::move(params));
    if (!wait || response.has("error")) return finish(response);

    // Poll get_tx until the node reports the transaction confirmed.
    const std::string id = response["result"]["id"].as_string();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_sec);
    while (std::chrono::steady_clock::now() < deadline) {
      Json query;
      query.set("id", id);
      const Json status = call(client, "get_tx", std::move(query));
      if (status.has("error")) return finish(status);
      if (status["result"]["state"].as_string() == "confirmed") {
        return finish(status);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::cerr << "error: transaction " << id << " not confirmed within "
              << timeout_sec << "s\n";
    return 3;
  }

  if (command == "tx") {
    const auto id = parser.value("--id");
    if (!id) {
      std::cerr << "error: tx needs --id\n";
      return 2;
    }
    Json params;
    params.set("id", std::string(*id));
    return finish(call(client, "get_tx", std::move(params)));
  }

  if (command == "balance") {
    const auto account = parser.value("--account");
    if (!account) {
      std::cerr << "error: balance needs --account\n";
      return 2;
    }
    const std::uint64_t account_id = parser.value_u64("--account", 0);
    const bool prove = parser.flag("--prove");
    Json params;
    params.set("account", account_id);
    if (prove) params.set("prove", true);
    const Json response = call(client, "get_balance", std::move(params));
    if (!prove || response.has("error")) return finish(response);

    // Verify the proof locally: decode the page, find the claimed account
    // inside it, and walk the Merkle path up to the state root the node
    // advertises.  A node that misreports a balance cannot produce a path
    // that still hashes to its own committed root.
    std::cout << response["result"].dump() << "\n";
    bool ok = false;
    try {
      const Json& result = response["result"];
      const Hash32 root = hash_from_hex(result["state_root"].as_string());
      const auto balance =
          UInt128::from_decimal(result["balance"].as_string());
      if (!balance.has_value()) throw JsonError("bad balance");
      state::Account claimed;
      claimed.balance = *balance;
      claimed.next_nonce = result["next_nonce"].as_u64();
      const Json& pj = result["proof"];
      state::authstate::AccountProof proof;
      proof.page = static_cast<std::uint32_t>(pj["page"].as_u64());
      proof.page_count =
          static_cast<std::uint32_t>(pj["page_count"].as_u64());
      proof.page_bytes = from_hex(pj["page_bytes"].as_string());
      for (const Json& step : pj["steps"].as_array()) {
        proof.steps.push_back(crypto::MerkleStep{
            hash_from_hex(step["sibling"].as_string()),
            step["left"].as_bool()});
      }
      if (pj["available"].as_bool()) {
        ok = state::authstate::verify_account_proof(
            root, static_cast<std::uint32_t>(account_id), claimed, proof);
      } else {
        // Past the committed page range: the account is empty by
        // construction, provided the claim is the default state and the
        // page really lies beyond the span the root commits to.
        ok = proof.page >= proof.page_count && claimed == state::Account{};
      }
      if (ok) {
        // Cross-check the proven root against the node's status line; a
        // mismatch at the same head means the node contradicts itself.
        const Json status = call(client, "status", Json());
        if (!status.has("error") &&
            status["result"]["head"].as_string() ==
                result["head"].as_string() &&
            status["result"]["state_root"].as_string() !=
                result["state_root"].as_string()) {
          ok = false;
        }
      }
    } catch (const std::exception&) {
      ok = false;
    }
    std::cout << (ok ? "VERIFIED" : "FAILED") << "\n";
    return ok ? 0 : 3;
  }

  if (command == "block") {
    Json params;
    if (const auto hash = parser.value("--hash")) {
      params.set("hash", std::string(*hash));
    } else if (parser.value("--height")) {
      params.set("height", parser.value_u64("--height", 0));
    } else {
      std::cerr << "error: block needs --hash or --height\n";
      return 2;
    }
    return finish(call(client, "get_block", std::move(params)));
  }

  if (command == "checkpoint") {
    Json params;
    if (parser.value("--height")) {
      params.set("height", parser.value_u64("--height", 0));
    }
    const Json response = call(client, "get_checkpoint", std::move(params));
    const auto validators = parser.value("--validators");
    if (!validators || response.has("error")) return finish(response);

    // Offline verification: decode the wire certificate and check the
    // aggregate signature against the deterministic consortium keys — no
    // trust in the serving node beyond the block id it finalized.
    std::cout << response["result"].dump() << "\n";
    bool ok = false;
    try {
      const Bytes raw = from_hex(response["result"]["raw"].as_string());
      const auto cert = finality::CheckpointCertificate::decode(raw);
      const auto backend = finality::make_backend(cert.backend);
      const auto set = finality::ValidatorSet::deterministic(
          parser.value_u64("--validators", 0));
      ok = backend != nullptr && backend->verify(cert, set);
    } catch (const std::exception&) {
      ok = false;
    }
    std::cout << (ok ? "VERIFIED" : "FAILED") << "\n";
    return ok ? 0 : 3;
  }

  if (command == "watch") {
    const std::uint64_t interval = parser.value_u64("--interval", 2);
    const std::uint64_t count = parser.value_u64("--count", 0);
    return watch_loop(client, interval == 0 ? 1 : interval, count);
  }

  if (command == "head") return finish(call(client, "get_head", Json()));
  if (command == "status") return finish(call(client, "status", Json()));
  if (command == "metrics") return finish(call(client, "metrics", Json()));

  std::cerr << "error: unknown command '" << command << "'\n" << kUsage;
  return 2;
}
