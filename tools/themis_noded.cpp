// themis-noded: run one Themis consensus node on a real TCP network.
//
// The daemon wires the p2p subsystem (src/p2p) around the paper's consensus
// stack: GEOST fork choice by default, §III validation, real double-SHA-256
// proof of work, a durable block store under --datadir, and the framed wire
// protocol with handshake, ping/pong liveness and locator-based chain sync.
//
// A 4-node loopback network (see README "Run a local 4-node network"):
//
//   themis-noded --id=0 --nodes=4 --listen=9100 --datadir=/tmp/n0 &
//   themis-noded --id=1 --nodes=4 --listen=9101 --peer=127.0.0.1:9100 ... &
//
// Every node is both server and client: it listens, dials its --peer list
// with exponential backoff, and re-dials dropped peers, so start order does
// not matter.  SIGINT/SIGTERM (or --run-for / --stop-at-height) stop the
// node cleanly; --report prints the JSON document GET /metrics serves, and
// --trace writes the JSONL event trace the simulator benches use.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/bytes.h"
#include "consensus/difficulty.h"
#include "consensus/forkchoice.h"
#include "core/geost.h"
#include "finality/aggregation.h"
#include "obs/live/log.h"
#include "obs/trace.h"
#include "p2p/node.h"
#include "rpc/gateway.h"
#include "rpc/http_server.h"

namespace {

constexpr std::string_view kUsage =
    "themis-noded [flags]\n"
    "  --id=<n>              node id within the consensus set (default 0)\n"
    "  --nodes=<n>           consensus set size (default 4)\n"
    "  --listen=<port>       TCP listen port (default 0 = ephemeral)\n"
    "  --no-listen           outbound-only node\n"
    "  --peer=<host:port>    peer to dial; repeatable\n"
    "  --datadir=<path>      durable state dir (default: memory only)\n"
    "  --difficulty=<d>      expected hashes per block (default 20000)\n"
    "  --fork-choice=<r>     geost | ghost | longest (default geost)\n"
    "  --no-mine             serve sync and relay blocks, do not mine\n"
    "  --ckpt-interval=<k>   checkpoint finality every k heights (default 16;\n"
    "                        0 disables it)\n"
    "  --finality-backend=<b>  certificate aggregation: concat | half\n"
    "                        (default concat)\n"
    "  --rpc-port=<port>     serve JSON-RPC over HTTP (default: disabled;\n"
    "                        0 picks an ephemeral port, printed at startup)\n"
    "  --genesis-fund=<n>    genesis balance per consortium account\n"
    "                        (default 1000000)\n"
    "  --snapshot-interval=<n>  write a verified state snapshot every n\n"
    "                        certified blocks (0 = disabled; needs\n"
    "                        --ckpt-interval > 0); restart restores from it\n"
    "                        instead of replaying history\n"
    "  --prune               with snapshots, drop block-store records below\n"
    "                        each snapshot height (bounded disk)\n"
    "  --max-block-txs=<n>   transactions per mined block cap (default 256)\n"
    "  --seed=<u64>          rng seed for nonce start / dial jitter\n"
    "  --run-for=<sec>       stop after this many seconds (0 = until signal)\n"
    "  --stop-at-height=<h>  stop once the head reaches height h\n"
    "  --status-interval=<s> status line period in seconds (0 = quiet)\n"
    "  --log-level=<l>       debug | info | warn | error | off (default info)\n"
    "  --log-json            structured JSONL log records instead of text\n"
    "  --trace=<path>        write a JSONL event trace on exit\n"
    "  --report[=<path>]     JSON /metrics document on exit (stderr or file)\n";

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void status_line(const themis::p2p::P2pNode& node) {
  namespace live = themis::obs::live;
  const auto stats = node.chain_stats();
  const auto transport = node.transport_stats();
  live::log_info(
      "noded", "status",
      {{"height", node.head_height()},
       {"head", themis::to_hex(node.head()).substr(0, 12)},
       {"peers", static_cast<std::uint64_t>(node.ready_peer_count())},
       {"mined", stats.blocks_produced},
       {"recv", stats.blocks_received},
       {"pool", static_cast<std::uint64_t>(node.pool_depth())},
       {"tx_conf", stats.txs_confirmed},
       {"bytes_in", transport.bytes_in},
       {"bytes_out", transport.bytes_out}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace themis;

  const bench::ArgParser parser(argc, argv);
  if (parser.flag("--help") || parser.flag("-h")) {
    std::cout << kUsage;
    return 0;
  }

  p2p::P2pNodeConfig config;
  config.id = static_cast<ledger::NodeId>(parser.value_u64("--id", 0));
  config.n_nodes =
      static_cast<std::size_t>(parser.value_u64("--nodes", 4));
  config.listen_port =
      static_cast<std::uint16_t>(parser.value_u64("--listen", 0));
  config.listen = !parser.flag("--no-listen");
  for (const auto peer : parser.values("--peer")) {
    config.peers.emplace_back(peer);
  }
  if (const auto v = parser.value("--datadir")) config.datadir = *v;
  if (const auto v = parser.value("--difficulty")) {
    config.difficulty = std::strtod(std::string(*v).c_str(), nullptr);
  }
  config.mine = !parser.flag("--no-mine");
  config.checkpoint_interval =
      parser.value_u64("--ckpt-interval", config.checkpoint_interval);
  if (const auto v = parser.value("--finality-backend")) {
    config.finality_backend = std::string(*v);
    if (finality::make_backend(config.finality_backend) == nullptr) {
      std::cerr << "error: unknown --finality-backend '"
                << config.finality_backend << "' (concat | half)\n";
      return 2;
    }
  }
  config.rng_seed = parser.value_u64("--seed", 1 + config.id);
  config.genesis_fund = parser.value_u64("--genesis-fund", config.genesis_fund);
  config.snapshot_interval = parser.value_u64("--snapshot-interval", 0);
  config.prune = parser.flag("--prune");
  config.max_block_txs = static_cast<std::size_t>(
      parser.value_u64("--max-block-txs", config.max_block_txs));

  bool rpc_enabled = false;
  std::uint16_t rpc_port = 0;
  if (const auto v = parser.value("--rpc-port")) {
    rpc_enabled = true;
    rpc_port = static_cast<std::uint16_t>(
        std::strtoul(std::string(*v).c_str(), nullptr, 10));
  }

  const std::uint64_t run_for = parser.value_u64("--run-for", 0);
  const std::uint64_t stop_at_height = parser.value_u64("--stop-at-height", 0);
  const std::uint64_t status_interval =
      parser.value_u64("--status-interval", 5);
  std::string trace_path;
  if (const auto v = parser.value("--trace")) trace_path = *v;
  bool report = false;
  std::string report_path;
  if (const auto v = parser.flag_or_value("--report")) {
    report = true;
    report_path = *v;
  }

  std::shared_ptr<consensus::ForkChoiceRule> rule;
  const std::string fork_choice{parser.value("--fork-choice").value_or("geost")};
  if (fork_choice == "geost") {
    rule = std::make_shared<core::GeostRule>(config.n_nodes);
  } else if (fork_choice == "ghost") {
    rule = std::make_shared<consensus::GhostRule>();
  } else if (fork_choice == "longest") {
    rule = std::make_shared<consensus::LongestChainRule>();
  } else {
    std::cerr << "error: unknown fork choice '" << fork_choice << "'\n";
    return 2;
  }
  const std::string log_level_name{
      parser.value("--log-level").value_or("info")};
  const bool log_json = parser.flag("--log-json");
  parser.reject_unknown(kUsage);

  if (config.id >= config.n_nodes) {
    std::cerr << "error: --id must be < --nodes\n";
    return 2;
  }
  if (config.snapshot_interval > 0 && config.checkpoint_interval == 0) {
    std::cerr << "error: --snapshot-interval needs checkpoint finality "
                 "(--ckpt-interval > 0)\n";
    return 2;
  }

  // Structured leveled logging: the library default is off; the daemon turns
  // it on (themis-noded is the one place ad-hoc status lines used to live).
  obs::live::Logger& logger = obs::live::Logger::global();
  logger.set_level(obs::live::log_level_from(log_level_name));
  logger.set_json(log_json);

  obs::EventTracer tracer;
  tracer.enable(!trace_path.empty());

  p2p::P2pNode node(config, rule);
  node.set_tracer(&tracer);
  if (!node.start()) {
    std::cerr << "error: failed to bind listen port " << config.listen_port
              << "\n";
    return 1;
  }

  // Client-facing JSON-RPC surface, started after the node so handlers can
  // always rely on a running consensus stack.
  rpc::Gateway gateway(node);
  std::unique_ptr<rpc::HttpServer> rpc_server;
  if (rpc_enabled) {
    rpc::HttpServerConfig http;
    http.port = rpc_port;
    rpc_server = std::make_unique<rpc::HttpServer>(
        http, [&gateway](const rpc::HttpRequest& request) {
          return gateway.handle(request);
        });
    if (!rpc_server->start()) {
      std::cerr << "error: failed to bind rpc port " << rpc_port << "\n";
      node.stop();
      return 1;
    }
    obs::live::log_info(
        "noded", "rpc listening",
        {{"port", static_cast<std::uint64_t>(rpc_server->port())},
         {"endpoints", "/status /metrics /metrics.prom /health"}});
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  obs::live::log_info(
      "noded", "node up",
      {{"id", static_cast<std::uint64_t>(config.id)},
       {"nodes", static_cast<std::uint64_t>(config.n_nodes)},
       {"port", static_cast<std::uint64_t>(node.listen_port())},
       {"fork_choice", rule->name()},
       {"difficulty", config.difficulty},
       {"mining", config.mine},
       {"datadir", config.datadir.empty() ? std::string("<memory>")
                                          : config.datadir.string()}});
  if (const auto replayed = node.chain_stats().store_replayed) {
    obs::live::log_info("noded", "store replayed",
                        {{"blocks", replayed}, {"height", node.head_height()}});
  }

  const auto started = std::chrono::steady_clock::now();
  auto next_status = started + std::chrono::seconds(status_interval);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto now = std::chrono::steady_clock::now();
    if (run_for > 0 && now - started >= std::chrono::seconds(run_for)) break;
    if (stop_at_height > 0 && node.head_height() >= stop_at_height) break;
    if (status_interval > 0 && now >= next_status) {
      status_line(node);
      next_status = now + std::chrono::seconds(status_interval);
    }
  }

  obs::live::log_info("noded", "stopping");
  // Shut down RPC first, so no handler races a stopping node, and take the
  // report while the peers are still connected.
  if (rpc_server != nullptr) rpc_server->stop();
  const std::string report_json =
      report ? gateway.metrics().dump() + "\n" : std::string();
  node.stop();
  status_line(node);
  if (!trace_path.empty()) {
    if (tracer.write_file(trace_path)) {
      obs::live::log_info(
          "noded", "trace written",
          {{"path", trace_path},
           {"events", static_cast<std::uint64_t>(tracer.size())}});
    } else {
      obs::live::log_error("noded", "trace write failed",
                           {{"path", trace_path}});
    }
  }
  if (report) {
    if (report_path.empty()) {
      std::cerr << report_json;
    } else {
      std::ofstream out(report_path);
      if (out) {
        out << report_json;
        obs::live::log_info("noded", "report written",
                            {{"path", report_path}});
      } else {
        obs::live::log_error("noded", "report write failed",
                             {{"path", report_path}});
      }
    }
  }
  return 0;
}
