// load_gen: end-to-end transaction-pipeline benchmark.
//
// Boots N consensus nodes in-process (real TCP p2p between them, each with a
// JSON-RPC server) and K concurrent client threads that hammer the RPC
// surface over real HTTP connections: every client signs as its own
// consortium account (the consensus set is sized nodes+clients, so client
// accounts exist in the genesis allocation and nonce sequences never race),
// submits a fixed number of transfers, then polls get_tx until every
// transaction is confirmed on the chain.
//
// Reported: confirmed throughput (confirmed txs / wall time from first
// submit to last confirmation) and the submit->confirmed latency
// distribution (p50/p90/p99), plus per-node pipeline counters.  --json
// writes the same numbers machine-readably (CI uploads BENCH_txpipe.json).
//
// This is a benchmark of the implementation's pipeline, not of the paper's
// consensus math: GHOST fork choice keeps the fork-choice cost independent
// of the (deliberately inflated) consensus-set size.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "consensus/forkchoice.h"
#include "p2p/node.h"
#include "rpc/gateway.h"
#include "rpc/http_client.h"
#include "rpc/http_server.h"
#include "rpc/json.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kUsage =
    "load_gen [flags]\n"
    "  --nodes=<n>       consensus nodes (default 3)\n"
    "  --miners=<m>      how many of the nodes mine (default: all); on a\n"
    "                    small host fewer miners means fewer PoW races and\n"
    "                    less reorg churn, as in a consortium deployment\n"
    "                    where serving nodes outnumber block producers\n"
    "  --clients=<k>     concurrent client threads (default 4)\n"
    "  --txs=<n>         transactions per client (default 150)\n"
    "  --submit-batch=<n> txs per submit_txs request (default 50)\n"
    "  --difficulty=<d>  expected hashes per block (default 6000)\n"
    "  --amount=<n>      transfer amount (default 1)\n"
    "  --timeout=<sec>   confirmation deadline after last submit (default 120)\n"
    "  --json=<path>     also write results as JSON (e.g. BENCH_txpipe.json)\n"
    "  --connect=<h:p,..> drive external daemons at these RPC endpoints\n"
    "                    instead of booting nodes in-process; node counters\n"
    "                    are scraped from each endpoint's /metrics\n"
    "  --sender-base=<n> first client account id (default: node count, i.e.\n"
    "                    the daemons were started with --nodes=nodes+clients)\n"
    "  --floors=<path>   JSON perf floors; exit 2 when violated, e.g.\n"
    "                    {\"min_confirmed_tps\": 100, \"max_p99_ms\": 5000,\n"
    "                     \"max_submit_errors\": 0,\n"
    "                     \"require_all_confirmed\": true,\n"
    "                     \"require_stage_histograms\": true}\n"
    "                    (the last asserts every tx-lifecycle stage histogram\n"
    "                    — verify/pool/inclusion/confirm/e2e — carries data)\n"
    "  --quick           smaller run for CI (2 nodes, 2 clients, 40 txs)\n";

/// One RPC endpoint ("host:port") to aim clients at.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

std::vector<Endpoint> parse_endpoints(const std::string& spec) {
  std::vector<Endpoint> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    if (!item.empty()) {
      const std::size_t colon = item.rfind(':');
      if (colon == std::string::npos || colon + 1 >= item.size()) {
        return {};  // malformed
      }
      Endpoint ep;
      ep.host = item.substr(0, colon);
      ep.port = static_cast<std::uint16_t>(
          std::strtoul(item.substr(colon + 1).c_str(), nullptr, 10));
      if (ep.host.empty() || ep.port == 0) return {};
      out.push_back(std::move(ep));
    }
    begin = end + 1;
  }
  return out;
}

struct ClientResult {
  std::uint64_t submitted = 0;
  std::uint64_t submit_errors = 0;
  std::uint64_t confirmed = 0;
  Clock::time_point first_submit{};
  Clock::time_point last_confirm{};
  std::vector<double> latencies_ms;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace themis;

  const bench::ArgParser parser(argc, argv);
  if (parser.flag("--help") || parser.flag("-h")) {
    std::cout << kUsage;
    return 0;
  }
  const bool quick = parser.flag("--quick");
  const std::size_t n_nodes =
      static_cast<std::size_t>(parser.value_u64("--nodes", quick ? 2 : 3));
  const std::size_t n_miners = static_cast<std::size_t>(
      parser.value_u64("--miners", static_cast<std::uint64_t>(n_nodes)));
  const std::size_t n_clients =
      static_cast<std::size_t>(parser.value_u64("--clients", quick ? 2 : 4));
  const std::uint64_t txs_per_client =
      parser.value_u64("--txs", quick ? 40 : 150);
  const std::uint64_t submit_batch =
      std::max<std::uint64_t>(1, parser.value_u64("--submit-batch", 50));
  double difficulty = 6000.0;
  if (const auto v = parser.value("--difficulty")) {
    difficulty = std::strtod(std::string(*v).c_str(), nullptr);
  }
  const std::uint64_t amount = parser.value_u64("--amount", 1);
  const std::uint64_t timeout_sec = parser.value_u64("--timeout", 120);
  std::string json_path;
  if (const auto v = parser.value("--json")) json_path = *v;
  std::vector<Endpoint> endpoints;
  const bool external = parser.value("--connect").has_value();
  if (external) {
    endpoints = parse_endpoints(std::string(*parser.value("--connect")));
    if (endpoints.empty()) {
      std::cerr << "error: --connect expects host:port[,host:port...]\n";
      return 1;
    }
  }
  const std::uint64_t sender_base = parser.value_u64(
      "--sender-base", external ? endpoints.size() : n_nodes);
  std::string floors_path;
  if (const auto v = parser.value("--floors")) floors_path = *v;
  parser.reject_unknown(kUsage);

  // Consensus set = nodes + clients: every client signs as its own account.
  const std::size_t set_size = n_nodes + n_clients;

  // --- boot the network (skipped when driving external daemons) -------------
  std::vector<std::unique_ptr<p2p::P2pNode>> nodes;
  std::vector<std::unique_ptr<rpc::Gateway>> gateways;
  std::vector<std::unique_ptr<rpc::HttpServer>> servers;

  for (std::size_t i = 0; i < n_nodes && !external; ++i) {
    p2p::P2pNodeConfig config;
    config.id = static_cast<ledger::NodeId>(i);
    config.n_nodes = set_size;
    config.listen_port = 0;
    config.difficulty = difficulty;
    config.rng_seed = 1 + i;
    config.mine = i < n_miners;
    for (std::size_t j = 0; j < i; ++j) {
      config.peers.push_back("127.0.0.1:" +
                             std::to_string(nodes[j]->listen_port()));
    }
    auto node = std::make_unique<p2p::P2pNode>(
        config, std::make_shared<consensus::GhostRule>());
    if (!node->start()) {
      std::cerr << "error: failed to start node " << i << "\n";
      return 1;
    }
    auto gateway = std::make_unique<rpc::Gateway>(*node);
    rpc::Gateway* gw = gateway.get();
    auto server = std::make_unique<rpc::HttpServer>(
        rpc::HttpServerConfig{},
        [gw](const rpc::HttpRequest& request) { return gw->handle(request); });
    if (!server->start()) {
      std::cerr << "error: failed to start rpc server " << i << "\n";
      return 1;
    }
    endpoints.push_back({"127.0.0.1", server->port()});
    nodes.push_back(std::move(node));
    gateways.push_back(std::move(gateway));
    servers.push_back(std::move(server));
  }
  if (external) {
    std::cerr << "[load_gen] driving " << endpoints.size()
              << " external daemons, " << n_clients << " clients x "
              << txs_per_client << " txs (senders from " << sender_base
              << ")\n";
  } else {
    std::cerr << "[load_gen] " << n_nodes << " nodes up (difficulty "
              << difficulty << "), " << n_clients << " clients x "
              << txs_per_client << " txs\n";
  }

  // --- drive load -----------------------------------------------------------
  std::vector<ClientResult> results(n_clients);
  std::vector<std::thread> clients;
  const auto bench_start = Clock::now();

  for (std::size_t k = 0; k < n_clients; ++k) {
    clients.emplace_back([&, k] {
      ClientResult& r = results[k];
      const auto sender = sender_base + k;
      const auto to = static_cast<std::uint64_t>(k % endpoints.size());
      const Endpoint& ep = endpoints[k % endpoints.size()];
      rpc::HttpClient client(ep.host, ep.port);

      struct Pending {
        std::string id;
        Clock::time_point submitted;
      };
      std::vector<Pending> pending;
      pending.reserve(txs_per_client);

      r.first_submit = Clock::now();
      // Submit in submit_txs batches: each round trip carries a window of
      // consecutive nonces, and the node settles the whole window through
      // one combining-queue admission pass (one Schnorr verification batch).
      std::uint64_t next_nonce = 1;
      while (next_nonce <= txs_per_client) {
        const std::uint64_t window = std::min<std::uint64_t>(
            submit_batch, txs_per_client - next_nonce + 1);
        rpc::Json::Array specs;
        specs.reserve(static_cast<std::size_t>(window));
        for (std::uint64_t nonce = next_nonce; nonce < next_nonce + window;
             ++nonce) {
          rpc::Json spec;
          spec.set("sender", sender);
          spec.set("to", to);
          spec.set("amount", amount);
          spec.set("nonce", nonce);
          specs.push_back(std::move(spec));
        }
        rpc::Json params;
        params.set("txs", rpc::Json(std::move(specs)));
        rpc::Json request;
        request.set("jsonrpc", "2.0");
        request.set("id", next_nonce);
        request.set("method", "submit_txs");
        request.set("params", std::move(params));
        const std::string body = request.dump();

        // A nonce too far ahead of the head state is rejected (admission
        // window); back off and retry the gapped tail so a fast client
        // cannot outrun mining.
        bool window_done = false;
        int attempt = 0;
        for (; attempt < 200 && !window_done; ++attempt) {
          const auto response = client.post("/", body);
          rpc::Json reply;
          bool parsed = false;
          if (response.has_value()) {
            try {
              reply = rpc::Json::parse(response->body);
              parsed = reply.has("result");
            } catch (const rpc::JsonError&) {
            }
          }
          if (!parsed) {
            // Transport or protocol failure: count the window and move on.
            r.submit_errors += window;
            next_nonce += window;
            window_done = true;
            break;
          }
          const auto now = Clock::now();
          bool nonce_gap = false;
          std::uint64_t consumed = 0;
          for (const rpc::Json& entry : reply["result"]["results"].as_array()) {
            const std::string& status = entry["status"].as_string();
            if (status == "accepted" || status == "duplicate") {
              pending.push_back({entry["id"].as_string(), now});
              ++r.submitted;
              ++consumed;
            } else if (status == "nonce_gap") {
              // The rest of the window is ahead of the head state; retry
              // from here once mining catches up.
              nonce_gap = true;
              break;
            } else {
              ++r.submit_errors;
              ++consumed;  // do not retry a hard rejection
            }
          }
          next_nonce += consumed;
          if (!nonce_gap) {
            window_done = true;
          } else if (consumed == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          } else {
            break;  // partial progress: rebuild the request from next_nonce
          }
        }
        if (attempt >= 200 && !window_done) {
          // Mining never caught up; give up on the rest of this window.
          r.submit_errors += window;
          next_nonce += window;
        }
      }

      // Poll until every submitted transaction confirms (or deadline): one
      // batched get_txs sweep resolves every pending id per round trip.
      const auto deadline = Clock::now() + std::chrono::seconds(timeout_sec);
      while (!pending.empty() && Clock::now() < deadline) {
        rpc::Json::Array ids;
        ids.reserve(pending.size());
        for (const Pending& p : pending) ids.push_back(rpc::Json(p.id));
        rpc::Json params;
        params.set("ids", rpc::Json(std::move(ids)));
        rpc::Json request;
        request.set("jsonrpc", "2.0");
        request.set("id", 0);
        request.set("method", "get_txs");
        request.set("params", std::move(params));
        const auto response = client.post("/", request.dump());
        bool any_confirmed = false;
        if (response.has_value()) {
          try {
            const rpc::Json reply = rpc::Json::parse(response->body);
            const rpc::Json::Array& states =
                reply["result"]["states"].as_array();
            if (states.size() == pending.size()) {
              const auto now = Clock::now();
              std::size_t keep = 0;
              for (std::size_t i = 0; i < pending.size(); ++i) {
                if (states[i].as_string() == "confirmed") {
                  r.latencies_ms.push_back(
                      std::chrono::duration<double, std::milli>(
                          now - pending[i].submitted)
                          .count());
                  r.last_confirm = now;
                  ++r.confirmed;
                  any_confirmed = true;
                } else {
                  // Guard the self-move: libstdc++ string move-assignment
                  // empties the source, which is the destination here when
                  // nothing before index i has confirmed yet.
                  if (keep != i) pending[keep] = std::move(pending[i]);
                  ++keep;
                }
              }
              pending.resize(keep);
            }
          } catch (const rpc::JsonError&) {
          }
        }
        if (!any_confirmed && !pending.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  // --- aggregate ------------------------------------------------------------
  std::uint64_t submitted = 0, confirmed = 0, errors = 0;
  std::vector<double> latencies;
  auto first_submit = Clock::time_point::max();
  auto last_confirm = bench_start;
  for (const ClientResult& r : results) {
    submitted += r.submitted;
    confirmed += r.confirmed;
    errors += r.submit_errors;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    if (r.submitted > 0) first_submit = std::min(first_submit, r.first_submit);
    if (r.confirmed > 0) last_confirm = std::max(last_confirm, r.last_confirm);
  }
  std::sort(latencies.begin(), latencies.end());
  const double elapsed_sec =
      confirmed == 0 ? 0.0
                     : std::chrono::duration<double>(last_confirm -
                                                     first_submit)
                           .count();
  const double tps =
      elapsed_sec > 0 ? static_cast<double>(confirmed) / elapsed_sec : 0.0;
  const double p50 = percentile(latencies, 0.50);
  const double p90 = percentile(latencies, 0.90);
  const double p99 = percentile(latencies, 0.99);

  // Node-side counters after the dust settles: read directly in-process,
  // scraped from each daemon's /metrics when driving an external network.
  std::uint64_t chain_confirmed = 0, chain_returned = 0, chain_purged = 0;
  std::uint64_t pool_left = 0;
  std::uint64_t height = 0;
  // Tx-lifecycle stage latencies from the nodes' live histograms, merged
  // across nodes: counts sum (each tx is staged on the node that admitted
  // it), latencies keep the worst node (a conservative fleet-wide bound).
  struct StageAgg {
    std::uint64_t count = 0;
    double mean_ms = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  };
  constexpr std::array<std::string_view, 5> kStageKeys = {
      "verify", "pool", "inclusion", "confirm", "e2e"};
  std::map<std::string, StageAgg, std::less<>> stage_aggs;
  const auto merge_stage = [&stage_aggs](std::string_view key,
                                         std::uint64_t count, double mean_ms,
                                         double p50_ms, double p99_ms) {
    StageAgg& agg = stage_aggs[std::string(key)];
    agg.count += count;
    agg.mean_ms = std::max(agg.mean_ms, mean_ms);
    agg.p50_ms = std::max(agg.p50_ms, p50_ms);
    agg.p99_ms = std::max(agg.p99_ms, p99_ms);
  };
  for (const auto& node : nodes) {
    const auto stats = node->chain_stats();
    chain_confirmed = std::max(chain_confirmed, stats.txs_confirmed);
    chain_returned += stats.txs_returned;
    chain_purged += stats.txs_purged;
    pool_left += node->pool_depth();
    height = std::max(height, node->head_height());
    for (const auto& h : node->live_registry().histogram_samples()) {
      std::string_view key;
      if (h.name == "themis_tx_stage_verify_seconds") key = "verify";
      else if (h.name == "themis_tx_stage_pool_seconds") key = "pool";
      else if (h.name == "themis_tx_stage_inclusion_seconds") key = "inclusion";
      else if (h.name == "themis_tx_stage_confirm_seconds") key = "confirm";
      else if (h.name == "themis_tx_e2e_seconds") key = "e2e";
      else continue;
      merge_stage(key, h.snap.total, h.snap.mean_ns() / 1e6,
                  h.snap.quantile_ns(0.50) / 1e6,
                  h.snap.quantile_ns(0.99) / 1e6);
    }
  }
  if (external) {
    for (const Endpoint& ep : endpoints) {
      rpc::HttpClient scraper(ep.host, ep.port);
      const auto response = scraper.get("/metrics");
      if (!response.has_value() || response->status != 200) {
        std::cerr << "warning: could not scrape " << ep.host << ":" << ep.port
                  << "/metrics\n";
        continue;
      }
      try {
        const rpc::Json metrics = rpc::Json::parse(response->body);
        const rpc::Json& tx = metrics["tx"];
        chain_confirmed =
            std::max(chain_confirmed, tx["confirmed"].as_u64());
        chain_returned += tx["returned"].as_u64();
        chain_purged += tx["purged"].as_u64();
        pool_left += tx["pool_depth"].as_u64();
        height = std::max(height, metrics["chain"]["height"].as_u64());
        if (metrics["stages"].is_object()) {
          for (const std::string_view key : kStageKeys) {
            const rpc::Json& s = metrics["stages"][std::string(key)];
            if (!s.is_object()) continue;
            merge_stage(key, s["count"].as_u64(), s["mean_ms"].as_double(),
                        s["p50_ms"].as_double(), s["p99_ms"].as_double());
          }
        }
      } catch (const rpc::JsonError&) {
        std::cerr << "warning: bad /metrics payload from " << ep.host << ":"
                  << ep.port << "\n";
      }
    }
  }

  std::uint64_t rpc_requests = 0;
  for (const auto& server : servers) rpc_requests += server->stats().requests;
  if (rpc_requests > 0) {
    std::cerr << "[load_gen] " << rpc_requests << " HTTP requests served ("
              << submitted << " submits)\n";
  }

  std::cout << "load_gen: nodes=" << (external ? endpoints.size() : n_nodes)
            << " clients=" << n_clients
            << " submitted=" << submitted << " confirmed=" << confirmed
            << " errors=" << errors << "\n"
            << "  confirmed_tps=" << tps << " over " << elapsed_sec << "s"
            << " (height " << height << ")\n"
            << "  latency_ms p50=" << p50 << " p90=" << p90 << " p99=" << p99
            << "\n"
            << "  pipeline: confirmed=" << chain_confirmed
            << " reorg_returned=" << chain_returned
            << " purged=" << chain_purged << " pool_left=" << pool_left
            << "\n";
  if (!stage_aggs.empty()) {
    std::cout << "  stages(ms p50/p99):";
    for (const std::string_view key : kStageKeys) {
      const auto it = stage_aggs.find(key);
      if (it == stage_aggs.end()) continue;
      std::cout << " " << key << "=" << it->second.p50_ms << "/"
                << it->second.p99_ms << " (n=" << it->second.count << ")";
    }
    std::cout << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
    } else {
      out << "{\n"
          << "  \"benchmark\": \"load_gen\",\n"
          << "  \"config\": {\"nodes\": " << n_nodes
          << ", \"miners\": " << (external ? 0 : n_miners)
          << ", \"clients\": " << n_clients
          << ", \"txs_per_client\": " << txs_per_client
          << ", \"difficulty\": " << difficulty << "},\n"
          << "  \"submitted\": " << submitted << ",\n"
          << "  \"confirmed\": " << confirmed << ",\n"
          << "  \"submit_errors\": " << errors << ",\n"
          << "  \"elapsed_sec\": " << elapsed_sec << ",\n"
          << "  \"confirmed_tps\": " << tps << ",\n"
          << "  \"latency_ms\": {\"p50\": " << p50 << ", \"p90\": " << p90
          << ", \"p99\": " << p99 << "},\n"
          << "  \"chain\": {\"height\": " << height
          << ", \"txs_confirmed\": " << chain_confirmed
          << ", \"txs_returned\": " << chain_returned
          << ", \"txs_purged\": " << chain_purged
          << ", \"pool_left\": " << pool_left << "},\n"
          << "  \"stages\": {";
      bool first_stage = true;
      for (const std::string_view key : kStageKeys) {
        const auto it = stage_aggs.find(key);
        if (it == stage_aggs.end()) continue;
        out << (first_stage ? "" : ", ") << "\"" << key
            << "\": {\"count\": " << it->second.count
            << ", \"mean_ms\": " << it->second.mean_ms
            << ", \"p50_ms\": " << it->second.p50_ms
            << ", \"p99_ms\": " << it->second.p99_ms << "}";
        first_stage = false;
      }
      out << "}\n"
          << "}\n";
      std::cerr << "[load_gen] wrote " << json_path << "\n";
    }
  }

  for (auto& server : servers) server->stop();
  for (auto& node : nodes) node->stop();

  // --- perf floors (the CI regression gate) ---------------------------------
  if (!floors_path.empty()) {
    rpc::Json floors;
    if (!bench::read_floors(floors_path, floors)) return 1;
    bool violated = false;
    const auto fail = [&violated](const std::string& what) {
      std::cerr << "FLOOR VIOLATED: " << what << "\n";
      violated = true;
    };
    if (floors.has("min_confirmed_tps") &&
        tps < floors["min_confirmed_tps"].as_double()) {
      fail("confirmed_tps " + std::to_string(tps) + " < " +
           std::to_string(floors["min_confirmed_tps"].as_double()));
    }
    if (floors.has("max_p99_ms") && p99 > floors["max_p99_ms"].as_double()) {
      fail("latency p99 " + std::to_string(p99) + "ms > " +
           std::to_string(floors["max_p99_ms"].as_double()) + "ms");
    }
    if (floors.has("max_submit_errors") &&
        errors > floors["max_submit_errors"].as_u64()) {
      fail(std::to_string(errors) + " submit errors > " +
           std::to_string(floors["max_submit_errors"].as_u64()));
    }
    if (floors.has("require_all_confirmed") &&
        floors["require_all_confirmed"].as_bool() && confirmed < submitted) {
      fail(std::to_string(submitted - confirmed) +
           " transactions never confirmed");
    }
    if (floors.has("require_stage_histograms") &&
        floors["require_stage_histograms"].as_bool()) {
      // Every lifecycle stage must have recorded data (zero counts mean the
      // stage wiring regressed — or telemetry was compiled out) and the
      // estimated quantiles must be ordered sanely.
      for (const std::string_view key : kStageKeys) {
        const auto it = stage_aggs.find(key);
        if (it == stage_aggs.end() || it->second.count == 0) {
          fail("stage histogram '" + std::string(key) + "' recorded no data");
          continue;
        }
        if (it->second.p99_ms + 1e-9 < it->second.p50_ms ||
            it->second.p50_ms < 0) {
          fail("stage histogram '" + std::string(key) +
               "' has inconsistent quantiles (p50=" +
               std::to_string(it->second.p50_ms) +
               "ms p99=" + std::to_string(it->second.p99_ms) + "ms)");
        }
      }
    }
    if (violated) return 2;
    std::cerr << "[load_gen] all perf floors met (" << floors_path << ")\n";
  }

  // The run failed if a majority of transactions never confirmed.
  return confirmed * 2 >= submitted || submitted == 0 ? 0 : 1;
}
