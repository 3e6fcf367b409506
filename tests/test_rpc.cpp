// RPC surface tests: the JSON codec against hostile input, and a live
// HttpServer + Gateway over a non-mining P2pNode driven through real sockets
// (malformed requests, oversized bodies, rejected transactions, concurrent
// submit storms).
#include "rpc/gateway.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/json.h"
#include "ledger/transaction.h"
#include "p2p/node.h"
#include "p2p/socket.h"
#include "rpc/http_client.h"
#include "rpc/http_server.h"
#include "state/authstate/merkle_state.h"
#include "state/transfer.h"

namespace themis::rpc {
namespace {

// --- Json codec --------------------------------------------------------------

TEST(RpcJson, U64RoundTripsExactly) {
  const Json v = Json::parse("18446744073709551615");
  ASSERT_TRUE(v.is_u64());
  EXPECT_EQ(v.as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.dump(), "18446744073709551615");
  // One past uint64 max no longer fits: falls back to double, not garbage.
  EXPECT_TRUE(Json::parse("18446744073709551616").is_double());
}

TEST(RpcJson, NegativeIntegersAreI64) {
  const Json v = Json::parse("-9223372036854775808");
  ASSERT_TRUE(v.is_i64());
  EXPECT_EQ(v.as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.dump(), "-9223372036854775808");
}

TEST(RpcJson, CrossSignedAccessors) {
  const Json small = Json::parse("7");  // integral literal -> u64 or i64
  EXPECT_EQ(small.as_u64(), 7u);
  EXPECT_EQ(small.as_i64(), 7);
  EXPECT_THROW(Json::parse("-1").as_u64(), JsonError);
  EXPECT_THROW(Json::parse("\"x\"").as_u64(), JsonError);
}

TEST(RpcJson, ParseDumpRoundTripIsDeterministic) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"nested":"x"},"z":-3})";
  const Json v = Json::parse(text);
  EXPECT_EQ(Json::parse(v.dump()), v);
  EXPECT_EQ(v.dump(), v.dump());
  EXPECT_EQ(v["b"]["nested"].as_string(), "x");
  EXPECT_TRUE(v["missing"].is_null());

  // Doubles dump in their shortest round-trip form and parse back exactly.
  const std::pair<double, const char*> shortest[] = {
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},
      {1e300, "1e+300"},
      {5e-324, "5e-324"}};
  for (const auto& [value, form] : shortest) {
    const std::string dumped = Json(value).dump();
    EXPECT_EQ(dumped, form);
    EXPECT_EQ(Json::parse(dumped).as_double(), value) << form;
  }
  // JSON cannot spell NaN or infinity.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(RpcJson, DepthCapRejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonError);
  EXPECT_NO_THROW(Json::parse(deep, 128));
}

TEST(RpcJson, TrailingGarbageRejected) {
  EXPECT_THROW(Json::parse("{} x"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("truefalse"), JsonError);
}

TEST(RpcJson, StringEscapesAndSurrogates) {
  const Json v = Json::parse(R"("a\n\t\"\\\u0041\ud83d\ude00")");
  EXPECT_EQ(v.as_string(), "a\n\t\"\\A\xF0\x9F\x98\x80");
  // Control characters are re-escaped on dump.
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(RpcJson, MalformedInputsThrow) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01", "+1", "1.",
        "\"unterminated", "\"bad\\q\"", "[1,]", "{,}", "nan",
        "\"\\ud83d\""}) {
    EXPECT_THROW(Json::parse(bad), JsonError) << bad;
  }
}

// --- live gateway ------------------------------------------------------------

class RpcGatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p2p::P2pNodeConfig config;
    config.id = 0;
    config.n_nodes = 16;
    config.mine = false;  // deterministic: chain stays at genesis
    config.listen_port = 0;
    node_ = std::make_unique<p2p::P2pNode>(config);
    ASSERT_TRUE(node_->start());

    gateway_ = std::make_unique<Gateway>(*node_);
    HttpServerConfig http;
    http.port = 0;
    http.max_body_bytes = 64 * 1024;
    server_ = std::make_unique<HttpServer>(
        http, [this](const HttpRequest& r) { return gateway_->handle(r); });
    ASSERT_TRUE(server_->start());
    client_ = std::make_unique<HttpClient>("127.0.0.1", server_->port());
  }

  void TearDown() override {
    server_->stop();
    node_->stop();
  }

  /// One JSON-RPC call through the real HTTP stack.
  Json call(const std::string& method, Json params) {
    Json request;
    request.set("jsonrpc", "2.0");
    request.set("id", 1);
    request.set("method", method);
    request.set("params", std::move(params));
    const auto result = client_->post("/", request.dump());
    EXPECT_TRUE(result.has_value());
    EXPECT_EQ(result->status, 200);
    return Json::parse(result->body);
  }

  static std::int64_t error_code(const Json& response) {
    EXPECT_TRUE(response.has("error"));
    return response["error"]["code"].as_i64();
  }

  std::unique_ptr<p2p::P2pNode> node_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<HttpClient> client_;
};

TEST_F(RpcGatewayTest, MalformedJsonIsParseError) {
  const auto result = client_->post("/", "{this is not json");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 200);  // JSON-RPC errors ride HTTP 200
  EXPECT_EQ(Json::parse(result->body)["error"]["code"].as_i64(), -32700);
}

TEST_F(RpcGatewayTest, NonObjectRequestIsInvalid) {
  for (const char* body : {"[1,2,3]", "42", "\"hi\"", "{\"params\":{}}"}) {
    const auto result = client_->post("/", body);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(Json::parse(result->body)["error"]["code"].as_i64(), -32600)
        << body;
  }
}

TEST_F(RpcGatewayTest, UnknownMethodIsMethodNotFound) {
  EXPECT_EQ(error_code(call("no_such_method", Json())), -32601);
}

TEST_F(RpcGatewayTest, MissingParamsAreInvalidParams) {
  EXPECT_EQ(error_code(call("get_tx", Json())), -32602);
  Json bad_type;
  bad_type.set("account", "not a number");
  EXPECT_EQ(error_code(call("get_balance", std::move(bad_type))), -32602);
}

TEST_F(RpcGatewayTest, OversizedBodyIs413) {
  const std::string big(128 * 1024, 'x');  // server caps at 64 KiB
  const auto result = client_->post("/", big);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 413);
  EXPECT_GE(server_->stats().oversized_bodies, 1u);
}

TEST_F(RpcGatewayTest, RawGarbageRequestIs400) {
  p2p::TcpSocket s =
      p2p::TcpSocket::connect("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(s.valid());
  s.set_timeouts(2000, 2000);
  const std::string garbage = "???\r\n\r\n";
  ASSERT_TRUE(s.send_all(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size())));
  std::string reply;
  std::uint8_t buf[1024];
  for (;;) {
    const int n = s.recv_some(buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(reinterpret_cast<const char*>(buf),
                 static_cast<std::size_t>(n));
    if (reply.find("\r\n\r\n") != std::string::npos) break;
  }
  EXPECT_TRUE(reply.starts_with("HTTP/1.1 400")) << reply;
  EXPECT_GE(server_->stats().bad_requests, 1u);
}

TEST_F(RpcGatewayTest, SubmitAcceptsStructuredTransfer) {
  Json params;
  params.set("sender", 1);
  params.set("to", 2);
  params.set("amount", 25);
  const Json response = call("submit_tx", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  EXPECT_EQ(response["result"]["status"].as_string(), "accepted");
  EXPECT_EQ(response["result"]["nonce"].as_u64(), 1u);  // auto-nonce hint
  EXPECT_EQ(node_->pool_depth(), 1u);

  // Status query sees it pending.
  Json query;
  query.set("id", response["result"]["id"].as_string());
  const Json status = call("get_tx", std::move(query));
  EXPECT_EQ(status["result"]["state"].as_string(), "pending");
}

TEST_F(RpcGatewayTest, SubmitAcceptsDecimalStringAmount) {
  // 128-bit amounts travel as exact decimal strings.  The pool will reject
  // the transfer for insufficient funds later; admission and the canonical
  // v2 encoding must survive the round trip losslessly.
  Json params;
  params.set("sender", 1);
  params.set("to", 2);
  params.set("amount", std::string("36893488147419103232"));  // 2^65
  const Json response = call("submit_tx", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  Json query;
  query.set("id", response["result"]["id"].as_string());
  const Json status = call("get_tx", std::move(query));
  EXPECT_EQ(status["result"]["tx"]["amount"].as_string(),
            "36893488147419103232");
}

TEST_F(RpcGatewayTest, HostileAmountStringsRejected) {
  for (const char* hostile :
       {"", "-1", "+1", " 1", "1 ", "1.5", "1e9", "0x10", "abc",
        "340282366920938463463374607431768211456",  // 2^128
        "99999999999999999999999999999999999999999999"}) {
    Json params;
    params.set("sender", 1);
    params.set("to", 2);
    params.set("amount", std::string(hostile));
    EXPECT_EQ(error_code(call("submit_tx", std::move(params))), -32602)
        << "amount '" << hostile << "' must be rejected";
  }
  EXPECT_EQ(node_->pool_depth(), 0u);
}

TEST_F(RpcGatewayTest, OutOfRangeIdsAreInvalidParams) {
  const auto transfer = [](std::uint64_t sender, std::uint64_t to) {
    Json params;
    params.set("sender", sender);
    params.set("to", to);
    params.set("amount", 1);
    return params;
  };
  // 2^32 + 7 must not wrap onto account 7, nor 2^32 + 1 onto sender 1.
  EXPECT_EQ(error_code(call("submit_tx", transfer(1, 4294967303ULL))), -32602);
  EXPECT_EQ(error_code(call("submit_tx", transfer(4294967297ULL, 2))), -32602);
  // Recipients at or above the account cap hold no account.
  EXPECT_EQ(error_code(call("submit_tx", transfer(1, state::kMaxAccounts))),
            -32602);
  EXPECT_EQ(error_code(call("submit_tx", transfer(1, 0xFFFFFFFEULL))), -32602);
  EXPECT_EQ(node_->pool_depth(), 0u);
  for (const bool prove : {false, true}) {
    Json params;
    params.set("account", std::uint64_t{4294967301});  // 2^32 + 5
    params.set("prove", prove);
    EXPECT_EQ(error_code(call("get_balance", std::move(params))), -32602);
  }
  // The last id below the cap is still a valid recipient.
  const Json edge = call("submit_tx", transfer(1, state::kMaxAccounts - 1));
  ASSERT_TRUE(edge.has("result")) << edge.dump();
  EXPECT_EQ(edge["result"]["status"].as_string(), "accepted");
}

TEST_F(RpcGatewayTest, BalanceProofVerifiesAgainstHeadRoot) {
  Json params;
  params.set("account", 1);
  params.set("prove", true);
  const Json response = call("get_balance", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  const Json& result = response["result"];
  EXPECT_EQ(result["balance"].as_string(),
            std::to_string(node_->config().genesis_fund));
  const Hash32 root = hash_from_hex(result["state_root"].as_string());
  EXPECT_EQ(root, node_->head_state_root());

  // Reconstruct the proof from the wire form and verify it locally, exactly
  // as themis-cli balance --prove does.
  const Json& pj = result["proof"];
  ASSERT_TRUE(pj["available"].as_bool());
  state::authstate::AccountProof proof;
  proof.page = static_cast<std::uint32_t>(pj["page"].as_u64());
  proof.page_count = static_cast<std::uint32_t>(pj["page_count"].as_u64());
  proof.page_bytes = from_hex(pj["page_bytes"].as_string());
  for (const Json& step : pj["steps"].as_array()) {
    proof.steps.push_back(crypto::MerkleStep{
        hash_from_hex(step["sibling"].as_string()),
        step["left"].as_bool()});
  }
  state::Account claimed;
  claimed.balance = *UInt128::from_decimal(result["balance"].as_string());
  claimed.next_nonce = result["next_nonce"].as_u64();
  EXPECT_TRUE(state::authstate::verify_account_proof(root, 1, claimed, proof));
  // A different balance must not verify with the same proof.
  claimed.balance += 1u;
  EXPECT_FALSE(
      state::authstate::verify_account_proof(root, 1, claimed, proof));
}

TEST_F(RpcGatewayTest, StatusCarriesStateRootAndSupply) {
  const Json response = call("status", Json());
  ASSERT_TRUE(response.has("result")) << response.dump();
  const Json& result = response["result"];
  EXPECT_EQ(result["state_root"].as_string(),
            to_hex(node_->head_state_root()));
  EXPECT_EQ(result["total_supply"].as_string(),
            node_->total_supply().to_decimal());
  EXPECT_FALSE(result["restored_from_snapshot"].as_bool());
}

TEST_F(RpcGatewayTest, SubmitAcceptsRawHex) {
  const ledger::SignedTransaction stx = ledger::sign_transaction(
      state::make_transfer_tx(3, 1, 0, state::Transfer{4, 7, {}}));
  Json params;
  params.set("raw", to_hex(stx.encode()));
  const Json response = call("submit_tx", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  EXPECT_EQ(response["result"]["id"].as_string(), to_hex(stx.tx.id()));
}

TEST_F(RpcGatewayTest, DuplicateSubmitReportsDuplicate) {
  // Raw submission: the exact same bytes twice.  (The structured path stamps
  // a fresh timestamp per call, so two identical-looking transfers are
  // distinct transactions by design.)
  const ledger::SignedTransaction stx = ledger::sign_transaction(
      state::make_transfer_tx(1, 1, 0, state::Transfer{2, 5, {}}));
  Json params;
  params.set("raw", to_hex(stx.encode()));
  EXPECT_EQ(call("submit_tx", params)["result"]["status"].as_string(),
            "accepted");
  EXPECT_EQ(call("submit_tx", params)["result"]["status"].as_string(),
            "duplicate");
  EXPECT_EQ(node_->pool_depth(), 1u);
}

TEST_F(RpcGatewayTest, BatchSubmitSettlesEveryTransferInOrder) {
  Json::Array specs;
  for (int nonce = 1; nonce <= 5; ++nonce) {
    Json spec;
    spec.set("sender", 1);
    spec.set("to", 2);
    spec.set("amount", 10 + nonce);
    spec.set("nonce", nonce);
    specs.push_back(std::move(spec));
  }
  Json params;
  params.set("txs", Json(std::move(specs)));
  const Json response = call("submit_txs", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  const Json::Array& results = response["result"]["results"].as_array();
  ASSERT_EQ(results.size(), 5u);
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i]["status"].as_string(), "accepted") << i;
    EXPECT_EQ(results[i]["nonce"].as_u64(), i + 1);
    ids.push_back(results[i]["id"].as_string());
  }
  EXPECT_EQ(node_->pool_depth(), 5u);

  // Batched status: one sweep covers all five plus an unknown id, and the
  // reply aligns with request order.
  Json::Array query_ids;
  for (const std::string& id : ids) query_ids.push_back(Json(id));
  query_ids.push_back(Json(std::string(64, 'e')));  // never submitted
  Json query;
  query.set("ids", Json(std::move(query_ids)));
  const Json status = call("get_txs", std::move(query));
  const Json::Array& states = status["result"]["states"].as_array();
  ASSERT_EQ(states.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(states[i].as_string(), "pending") << i;
  }
  EXPECT_EQ(states[5].as_string(), "unknown");
}

TEST_F(RpcGatewayTest, BatchSubmitReportsPerItemVerdicts) {
  // One good transfer, the same raw bytes twice (intra-batch duplicate), and
  // a nonce far ahead of the head state: the call succeeds and each entry
  // carries its own admission verdict.
  const ledger::SignedTransaction raw = ledger::sign_transaction(
      state::make_transfer_tx(3, 1, 0, state::Transfer{4, 7, {}}));
  Json::Array specs;
  Json raw_spec;
  raw_spec.set("raw", to_hex(raw.encode()));
  specs.push_back(raw_spec);
  specs.push_back(raw_spec);
  Json gapped;
  gapped.set("sender", 5);
  gapped.set("to", 6);
  gapped.set("amount", 1);
  gapped.set("nonce", 5000);  // beyond the 1024-nonce admission window
  specs.push_back(std::move(gapped));
  Json params;
  params.set("txs", Json(std::move(specs)));
  const Json response = call("submit_txs", std::move(params));
  ASSERT_TRUE(response.has("result")) << response.dump();
  const Json::Array& results = response["result"]["results"].as_array();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0]["status"].as_string(), "accepted");
  EXPECT_EQ(results[1]["status"].as_string(), "duplicate");
  EXPECT_EQ(results[2]["status"].as_string(), "nonce_gap");
  EXPECT_EQ(node_->pool_depth(), 1u);
}

TEST_F(RpcGatewayTest, BatchEndpointsValidateTheirParams) {
  Json no_array;
  no_array.set("txs", 7);
  EXPECT_EQ(error_code(call("submit_txs", std::move(no_array))), -32602);

  Json::Array too_many;
  for (int i = 0; i < 513; ++i) {
    Json spec;
    spec.set("sender", 1);
    spec.set("to", 2);
    spec.set("amount", 1);
    too_many.push_back(std::move(spec));
  }
  Json oversized;
  oversized.set("txs", Json(std::move(too_many)));
  EXPECT_EQ(error_code(call("submit_txs", std::move(oversized))), -32602);

  Json bad_ids;
  bad_ids.set("ids", "not-an-array");
  EXPECT_EQ(error_code(call("get_txs", std::move(bad_ids))), -32602);

  Json::Array bad_hex;
  bad_hex.push_back(Json(std::string("zz")));
  Json bad_id_params;
  bad_id_params.set("ids", Json(std::move(bad_hex)));
  EXPECT_EQ(error_code(call("get_txs", std::move(bad_id_params))), -32602);
}

TEST_F(RpcGatewayTest, RejectionsCarryTheAdmissionVerdict) {
  const auto submit = [this](std::uint64_t sender, std::uint64_t nonce) {
    Json params;
    params.set("sender", sender);
    params.set("to", std::uint64_t{2});
    params.set("amount", std::uint64_t{1});
    params.set("nonce", nonce);
    return call("submit_tx", std::move(params));
  };
  Json stale = submit(1, 0);  // accounts start at next_nonce 1
  EXPECT_EQ(error_code(stale), -32000);
  EXPECT_EQ(stale["error"]["message"].as_string(), "stale_nonce");

  Json gap = submit(1, 5000);  // far past the admission window
  EXPECT_EQ(gap["error"]["message"].as_string(), "nonce_gap");

  Json unknown = submit(999, 1);  // outside the 16-member consortium
  EXPECT_EQ(unknown["error"]["message"].as_string(), "unknown_sender");
  EXPECT_EQ(node_->pool_depth(), 0u);
}

TEST_F(RpcGatewayTest, BadSignatureIsRejected) {
  ledger::SignedTransaction stx = ledger::sign_transaction(
      state::make_transfer_tx(1, 1, 0, state::Transfer{2, 1, {}}));
  stx.signature.s[0] ^= 0x01;
  Json params;
  params.set("raw", to_hex(stx.encode()));
  const Json response = call("submit_tx", std::move(params));
  EXPECT_EQ(error_code(response), -32000);
  EXPECT_EQ(response["error"]["message"].as_string(), "bad_signature");
  EXPECT_EQ(node_->pool_depth(), 0u);
}

TEST_F(RpcGatewayTest, BalanceHeadAndBlockQueries) {
  Json account;
  account.set("account", 1);
  const Json balance = call("get_balance", std::move(account));
  // Balances are exact decimal strings (128-bit range).
  EXPECT_EQ(balance["result"]["balance"].as_string(),
            std::to_string(node_->config().genesis_fund));
  EXPECT_EQ(balance["result"]["next_nonce"].as_u64(), 1u);

  const Json head = call("get_head", Json());
  EXPECT_EQ(head["result"]["height"].as_u64(), 0u);
  const std::string genesis_hex = head["result"]["hash"].as_string();

  Json by_hash;
  by_hash.set("hash", genesis_hex);
  EXPECT_EQ(call("get_block", std::move(by_hash))["result"]["height"].as_u64(),
            0u);
  Json by_height;
  by_height.set("height", 0);
  EXPECT_EQ(
      call("get_block", std::move(by_height))["result"]["hash"].as_string(),
      genesis_hex);
  Json missing;
  missing.set("height", 999);
  EXPECT_EQ(error_code(call("get_block", std::move(missing))), -32000);
}

TEST_F(RpcGatewayTest, StatusAndMetricsOverGet) {
  const auto status = client_->get("/status");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->status, 200);
  EXPECT_TRUE(Json::parse(status->body).has("head"));

  const auto metrics = client_->get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_TRUE(Json::parse(metrics->body).has("tx"));

  const auto missing = client_->get("/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(RpcGatewayTest, MetricsJsonCarriesStagesAndHealth) {
  const auto metrics = client_->get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  const Json body = Json::parse(metrics->body);
  EXPECT_TRUE(body["stages"].is_object());
  EXPECT_TRUE(body["health"].is_object());
  EXPECT_TRUE(body["health"]["ready"].as_bool());
  EXPECT_TRUE(body["rpc"]["methods"].is_object());
}

TEST_F(RpcGatewayTest, PrometheusExpositionOverGet) {
  // Generate at least one request so rpc counters are nonzero.
  call("get_head", Json());
  const auto prom = client_->get("/metrics.prom");
  ASSERT_TRUE(prom.has_value());
  EXPECT_EQ(prom->status, 200);
  const std::string& text = prom->body;
  EXPECT_NE(text.find("# TYPE themis_pool_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE themis_tx_e2e_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("themis_rpc_requests_total{method=\"get_head\"}"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(RpcGatewayTest, HealthReportsReadyStandalone) {
  // A node with no configured peers is trivially ready: 200 immediately.
  const auto health = client_->get("/health");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  const Json body = Json::parse(health->body);
  EXPECT_EQ(body["status"].as_string(), "ok");
  EXPECT_GE(body["uptime_seconds"].as_double(), 0.0);
}

TEST(RpcHealthTransition, UnreadyUntilPeerAppears) {
  // Reserve an ephemeral port, then release it: the probed node dials it
  // while nothing listens there (503), until a peer actually binds it (200).
  std::uint16_t peer_port = 0;
  {
    p2p::TcpListener probe;
    ASSERT_TRUE(probe.listen(0));
    peer_port = probe.port();
  }

  p2p::P2pNodeConfig config;
  config.id = 0;
  config.n_nodes = 16;
  config.mine = false;
  config.listen_port = 0;
  config.peers = {"127.0.0.1:" + std::to_string(peer_port)};
  config.backoff_initial_ms = 50;
  config.backoff_max_ms = 200;
  p2p::P2pNode node(config);
  ASSERT_TRUE(node.start());
  Gateway gateway(node);

  HttpRequest health;
  health.method = "GET";
  health.target = "/health";
  EXPECT_EQ(gateway.handle(health).status, 503);
  EXPECT_EQ(Json::parse(gateway.handle(health).body)["status"].as_string(),
            "unavailable");

  // The awaited peer comes up on the reserved port; the prober's reconnect
  // backoff finds it and readiness flips.
  p2p::P2pNodeConfig peer_config;
  peer_config.id = 1;
  peer_config.n_nodes = 16;
  peer_config.mine = false;
  peer_config.listen_port = peer_port;
  p2p::P2pNode peer(peer_config);
  ASSERT_TRUE(peer.start());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (gateway.handle(health).status != 200 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(gateway.handle(health).status, 200);

  node.stop();
  peer.stop();
}

/// One JSON-RPC call straight through Gateway::handle (no HTTP transport);
/// returns the whole reply.
Json handle_call(Gateway& gateway, const std::string& method, Json params) {
  Json body;
  body.set("jsonrpc", "2.0");
  body.set("id", 1);
  body.set("method", method);
  body.set("params", std::move(params));
  HttpRequest request;
  request.method = "POST";
  request.target = "/";
  request.body = body.dump();
  return Json::parse(gateway.handle(request).body);
}

// status and get_head read the head once per reply: while blocks land
// continuously, every reply's height belongs to its hash, and a balance proof
// taken at the same head as a status reply carries the same state root (the
// cross-check behind `themis-cli balance --prove`).
TEST(RpcHeadSnapshot, StatusAndGetHeadNeverTearUnderMining) {
  p2p::P2pNodeConfig config;
  config.n_nodes = 1;
  config.listen = false;
  config.difficulty = 50.0;  // a block every few dozen hashes
  p2p::P2pNode node(config);
  Gateway gateway(node);
  ASSERT_TRUE(node.start());
  const auto call = [&gateway](const std::string& method, Json params) {
    return handle_call(gateway, method, std::move(params))["result"];
  };
  const std::uint64_t start_height = node.head_height();
  std::size_t same_head = 0;
  for (int i = 0; i < 800; ++i) {
    for (const auto& [method, key] :
         {std::pair{"status", "head"}, std::pair{"get_head", "hash"}}) {
      const Json reply = call(method, Json());
      const auto block = node.block_info(hash_from_hex(reply[key].as_string()));
      ASSERT_TRUE(block.has_value()) << method;
      ASSERT_EQ(reply["height"].as_u64(), block->block->header().height)
          << method;
    }
    Json params;
    params.set("account", 0);
    params.set("prove", true);
    const Json proof = call("get_balance", std::move(params));
    const Json status = call("status", Json());
    if (status["head"] == proof["head"]) {
      ++same_head;
      EXPECT_EQ(status["state_root"], proof["state_root"]);
    }
  }
  EXPECT_GT(node.head_height(), start_height) << "blocks must land meanwhile";
  EXPECT_GT(same_head, 0u);
  node.stop();
}

// Structured transfers without a "nonce" take the node's hint: the head
// state's next nonce, skipping the sender's pending ones.  Blocks confirm
// those pending transfers all the while; if the hint read the head and the
// pool in two lock holds, a block landing between them would hand out a spent
// nonce (stale_nonce).  Each thread owns one sender, so every hint must be
// accepted.  Sixteen threads oversubscribe the cores, so submitters are often
// preempted mid-call, which is what exposes a hint split across two holds.
// Fewer than 1024 submits per sender keep the hint inside the admission nonce
// window whatever the miner's lag.
TEST(RpcAutoNonce, SubmissionsNeverGoStaleWhileBlocksConfirm) {
  constexpr std::uint64_t kSenders = 16;
  constexpr int kPerSender = 100;
  p2p::P2pNodeConfig config;
  config.n_nodes = kSenders;
  config.listen = false;
  config.difficulty = 50.0;  // a block every few dozen hashes
  p2p::P2pNode node(config);
  Gateway gateway(node);
  ASSERT_TRUE(node.start());
  const std::uint64_t start_height = node.head_height();

  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> threads;
  for (std::uint64_t sender = 0; sender < kSenders; ++sender) {
    threads.emplace_back([&gateway, &accepted, sender] {
      for (int i = 0; i < kPerSender; ++i) {
        Json params;
        params.set("sender", sender);
        params.set("to", (sender + 1) % kSenders);
        params.set("amount", std::uint64_t{1});
        const Json reply = handle_call(gateway, "submit_tx", std::move(params));
        ASSERT_TRUE(reply.has("result"))
            << "sender " << sender << " submit " << i << ": " << reply.dump();
        ASSERT_EQ(reply["result"]["status"].as_string(), "accepted");
        accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kSenders * kPerSender);
  EXPECT_GT(node.head_height(), start_height) << "blocks must land meanwhile";
  node.stop();
}

// Many clients hammering submit_tx at once: every admission must succeed
// exactly once and the pool must account for all of them (run under TSan via
// the ctest 'Rpc' regex).
TEST_F(RpcGatewayTest, ConcurrentSubmitStorm) {
  constexpr std::uint64_t kClients = 8;
  constexpr std::uint64_t kPerClient = 25;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> accepted{0};
  for (std::uint64_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &accepted] {
      HttpClient client("127.0.0.1", server_->port());
      for (std::uint64_t n = 1; n <= kPerClient; ++n) {
        Json request;
        request.set("jsonrpc", "2.0");
        request.set("id", n);
        request.set("method", "submit_tx");
        Json params;
        params.set("sender", c + 1);  // distinct senders: no nonce races
        params.set("to", std::uint64_t{0});
        params.set("amount", std::uint64_t{1});
        params.set("nonce", n);
        request.set("params", std::move(params));
        const auto result = client.post("/", request.dump());
        ASSERT_TRUE(result.has_value());
        const Json response = Json::parse(result->body);
        ASSERT_TRUE(response.has("result")) << response.dump();
        if (response["result"]["status"].as_string() == "accepted") {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kClients * kPerClient);
  EXPECT_EQ(node_->pool_depth(), kClients * kPerClient);
  EXPECT_EQ(node_->chain_stats().txs_accepted, kClients * kPerClient);
  EXPECT_EQ(gateway_->stats().errors, 0u);
}

}  // namespace
}  // namespace themis::rpc
