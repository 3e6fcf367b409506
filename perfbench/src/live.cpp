// The two live-node workloads: in-process P2pNodes over loopback TCP, each
// behind the JSON-RPC gateway on its own HttpServer, driven by client
// threads over real keep-alive HTTP connections.
//
//   pipeline-3n  3 nodes (node 0 mines, difficulty 6000), closed loop of 3
//                clients, each signing as one node's account with at most
//                300 raw transfers outstanding, submitted 50 per
//                submit_txs; a prober reads 4 balance proofs/s.
//   ledger-262k  1 node restored from a snapshot of 262,144 funded accounts
//                (difficulty 30000); open loop of 200 transfers/s in
//                batches of 10 to uniformly drawn recipients, plus 4
//                balance proofs/s on uniformly drawn accounts.
//
// Both run the daemon's production configuration: GEOST fork choice, a
// datadir, checkpoint finality every 16 heights with concat certificates,
// and a consortium of exactly the running nodes, so finality forms.
//
// Inputs are raw transfers pre-signed from the seed before any node starts
// (never signed by the gateway).  A run is: set-up (repeated, median
// reported), warm-up, the measured window, a drain in which every
// acknowledged transfer must confirm, then the correctness checks and the
// single-threaded replay of the recorded inputs.
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "common/bytes.h"
#include "core/geost.h"
#include "ledger/block_store.h"
#include "p2p/node.h"
#include "replay.h"
#include "rpc/gateway.h"
#include "rpc/http_client.h"
#include "rpc/http_server.h"
#include "rpc/json.h"
#include "state/authstate/merkle_state.h"
#include "state/authstate/snapshot.h"
#include "state/transfer.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ledger = themis::ledger;
using themis::p2p::P2pNode;

struct LiveSpec {
  std::string name;
  std::size_t nodes = 1;
  double difficulty = 6000;
  bool closed_loop = true;
  /// Closed loop: one client per node, at most `window` outstanding each.
  std::size_t window = 300;
  std::size_t submit_batch = 50;
  /// Open loop: transfers per second (one client).
  double tx_rate = 0;
  double proof_rate = 4;
  /// Funded accounts; more than `nodes` means a restored snapshot.
  std::uint32_t accounts = 3;
  /// Closed loop: pre-signed transfers per client per second of load, the
  /// capacity the supply covers before it runs dry (exhaustion is a
  /// failure).  The open loop pre-signs exactly what its schedule sends.
  double supply_rate = 0;
};

constexpr double kWarmupS = 3.0;
constexpr double kDrainTimeoutS = 20.0;
constexpr double kFinalityTailS = 8.0;
constexpr int kSetupReps = 5;
constexpr int kPollSleepMs = 5;
constexpr int kSubWindows = 5;
constexpr std::uint64_t kCheckpointInterval = 16;
constexpr std::uint64_t kSnapshotFund = 1'000'000;
const themis::UInt128 kSenderFund(1'000'000'000'000ULL);

// --- inputs ------------------------------------------------------------------

struct PreparedTx {
  themis::Bytes raw;  ///< 576-byte signed encoding
  ledger::TxId id{};
};

struct Inputs {
  std::vector<std::vector<PreparedTx>> per_client;
  std::vector<std::uint32_t> proof_accounts;
  /// Snapshot template (ledger-262k): store + snapshot files, the state.
  fs::path template_dir;
  themis::state::LedgerState root_state;
  ledger::BlockPtr root;
  themis::Hash32 root_state_root{};
  themis::UInt128 supply;
};

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Sign `count` transfers per client, in parallel across all cores.
std::vector<std::vector<PreparedTx>> presign(const LiveSpec& spec,
                                             std::uint64_t seed,
                                             std::size_t clients,
                                             std::size_t count) {
  std::vector<std::vector<ledger::Transaction>> plain(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + c + 1);
    const auto sender = static_cast<ledger::NodeId>(c);
    plain[c].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      themis::state::Transfer transfer;
      do {
        transfer.to = static_cast<ledger::NodeId>(rng() % spec.accounts);
      } while (transfer.to == sender);
      transfer.amount = themis::UInt128(1 + rng() % 3);
      const auto nonce = static_cast<std::uint64_t>(i + 1);
      plain[c].push_back(themis::state::make_transfer_tx(
          sender, nonce, static_cast<std::int64_t>(seed * 1'000'000'000ULL + nonce),
          transfer));
    }
  }
  std::vector<std::vector<PreparedTx>> out(clients);
  for (std::size_t c = 0; c < clients; ++c) out[c].resize(count);
  const std::size_t total = clients * count;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < nproc(); ++w) {
    workers.emplace_back([&] {
      for (std::size_t k = next.fetch_add(64); k < total; k = next.fetch_add(64)) {
        for (std::size_t j = k; j < std::min(total, k + 64); ++j) {
          const std::size_t c = j / count, i = j % count;
          const auto stx = ledger::sign_transaction(plain[c][i]);
          out[c][i] = PreparedTx{stx.encode(), stx.tx.id()};
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  return out;
}

/// ledger-262k's starting point: one synthetic block above genesis plus a
/// snapshot at it holding every funded account, written as a datadir the
/// node restores at start().
void write_snapshot_template(const LiveSpec& spec, Inputs& in) {
  fs::remove_all(in.template_dir);
  fs::create_directories(in.template_dir);
  ledger::BlockHeader header;
  header.height = 1;
  header.prev = ledger::Block::genesis().id();
  header.merkle_root = themis::crypto::merkle_root({});
  header.producer = 0;
  header.difficulty = spec.difficulty;
  header.timestamp_nanos = 1;
  auto block = std::make_shared<const ledger::Block>(
      header, themis::crypto::Signature{}, std::vector<ledger::Transaction>{});
  {
    ledger::BlockStore store(in.template_dir / "blocks.dat");
    store.append(*block);
  }
  for (std::uint32_t id = 0; id < spec.accounts; ++id) {
    in.root_state.put_back(
        id, themis::state::Account{id < spec.nodes ? kSenderFund
                                                   : themis::UInt128(kSnapshotFund),
                                   1});
  }
  themis::state::authstate::Snapshot snap;
  snap.height = 1;
  snap.block = block->id();
  snap.state = in.root_state;
  if (!themis::state::authstate::write_snapshot(in.template_dir / "state.snap", snap)) {
    throw std::runtime_error("cannot write snapshot template");
  }
  in.root = block;
  in.root_state_root = themis::state::authstate::state_root_of(in.root_state);
}

// --- the cluster -------------------------------------------------------------

/// Head-change and finality observations, appended from node threads and
/// the observer.
struct HeadEvent {
  std::size_t node = 0;
  Clock::time_point at;
  ledger::BlockHash head{};
};
struct FinalitySample {
  Clock::time_point at;
  std::uint64_t head_height = 0;
  std::uint64_t finalized = 0;
};

class EventLog {
 public:
  void head(HeadEvent e) {
    std::lock_guard<std::mutex> lock(mu_);
    heads_.push_back(e);
  }
  std::vector<HeadEvent> heads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heads_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<HeadEvent> heads_;
};

class Cluster {
 public:
  Cluster(const LiveSpec& spec, fs::path dir, Tracer& tracer, EventLog& log)
      : spec_(spec), dir_(std::move(dir)), tracer_(tracer), log_(log) {}
  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Construct and start every node and RPC server, then wait until the
  /// peers are connected and each node's state root is computed (and, for a
  /// restored snapshot, equal to the snapshot's root).
  bool start(const themis::Hash32* expected_root, std::string& err) {
    for (std::size_t i = 0; i < spec_.nodes; ++i) {
      themis::p2p::P2pNodeConfig config;
      config.id = static_cast<ledger::NodeId>(i);
      config.n_nodes = spec_.nodes;
      config.datadir = dir_ / ("node-" + std::to_string(i));
      config.difficulty = spec_.difficulty;
      config.mine = i == 0;
      config.checkpoint_interval = kCheckpointInterval;
      config.finality_backend = "concat";
      config.rng_seed = 1 + i;
      for (std::size_t j = 0; j < i; ++j) {
        config.peers.push_back("127.0.0.1:" + std::to_string(nodes_[j]->listen_port()));
      }
      auto node = std::make_unique<P2pNode>(
          config, std::make_shared<themis::core::GeostRule>(spec_.nodes));
      EventLog* log = &log_;
      node->set_head_listener([log, i](const P2pNode& n) {
        log->head({i, Clock::now(), n.head()});
      });
      if (!node->start()) {
        err = "node " + std::to_string(i) + " failed to start";
        return false;
      }
      auto gateway = std::make_unique<themis::rpc::Gateway>(*node);
      themis::rpc::Gateway* gw = gateway.get();
      Tracer* tracer = &tracer_;
      auto server = std::make_unique<themis::rpc::HttpServer>(
          themis::rpc::HttpServerConfig{}, [gw, tracer](const themis::rpc::HttpRequest& request) {
            if (!tracer->enabled()) return gw->handle(request);
            // The request id and method ride in the POST target, which the
            // gateway ignores: "/?rid=<id>&m=<method>".
            const std::int64_t start = Tracer::now_ns();
            auto response = gw->handle(request);
            const std::int64_t end = Tracer::now_ns();
            const auto rid_at = request.target.find("rid=");
            const auto m_at = request.target.find("&m=");
            if (rid_at != std::string::npos && m_at != std::string::npos) {
              const std::uint64_t rid =
                  std::strtoull(request.target.c_str() + rid_at + 4, nullptr, 10);
              tracer->record({tracer->next_id(), rid,
                              "server." + request.target.substr(m_at + 3), start,
                              end});
            }
            return response;
          });
      if (!server->start()) {
        err = "rpc server " + std::to_string(i) + " failed to start";
        return false;
      }
      nodes_.push_back(std::move(node));
      gateways_.push_back(std::move(gateway));
      servers_.push_back(std::move(server));
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      bool ready = true;
      for (const auto& n : nodes_) {
        ready = ready && n->ready_peer_count() + 1 >= spec_.nodes && n->ready();
      }
      if (ready) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->ready_peer_count() + 1 < spec_.nodes) {
        err = "node " + std::to_string(i) + " did not connect to its peers";
        return false;
      }
      const themis::Hash32 root = nodes_[i]->head_state_root();
      if (expected_root != nullptr) {
        if (!nodes_[i]->chain_stats().restored_from_snapshot) {
          err = "node " + std::to_string(i) + " did not restore the snapshot";
          return false;
        }
        if (root != *expected_root) {
          err = "restored state root differs from the snapshot's";
          return false;
        }
      }
    }
    return true;
  }

  void stop() {
    for (auto& s : servers_) s->stop();
    for (auto& n : nodes_) n->stop();
  }

  std::vector<const themis::obs::live::Registry*> registries() const {
    std::vector<const themis::obs::live::Registry*> out;
    for (const auto& n : nodes_) out.push_back(&n->live_registry());
    return out;
  }

  std::vector<std::unique_ptr<P2pNode>>& nodes() { return nodes_; }
  std::uint16_t rpc_port(std::size_t i) const { return servers_[i]->port(); }
  const themis::rpc::Gateway& gateway(std::size_t i) const { return *gateways_[i]; }

 private:
  const LiveSpec& spec_;
  fs::path dir_;
  Tracer& tracer_;
  EventLog& log_;
  std::vector<std::unique_ptr<P2pNode>> nodes_;
  std::vector<std::unique_ptr<themis::rpc::Gateway>> gateways_;
  std::vector<std::unique_ptr<themis::rpc::HttpServer>> servers_;
};

// --- clients -----------------------------------------------------------------

/// One RPC connection that records a client span per request in traced
/// runs.
class RpcConn {
 public:
  RpcConn(std::uint16_t port, Tracer& tracer)
      : client_("127.0.0.1", port, 30000), tracer_(tracer) {}

  /// POST a JSON-RPC body; parsed reply, or nullopt on any failure.
  std::optional<themis::rpc::Json> call(const std::string& method,
                                        const std::string& body,
                                        double* rtt_ms = nullptr,
                                        std::string* raw = nullptr) {
    std::string target = "/";
    std::uint64_t rid = 0;
    if (tracer_.enabled()) {
      rid = tracer_.next_id();
      target = "/?rid=" + std::to_string(rid) + "&m=" + method;
    }
    const std::int64_t start = Tracer::now_ns();
    const auto response = client_.post(target, body);
    const std::int64_t end = Tracer::now_ns();
    if (rtt_ms != nullptr) *rtt_ms = static_cast<double>(end - start) / 1e6;
    if (tracer_.enabled()) tracer_.record({rid, 0, "client." + method, start, end});
    if (!response.has_value() || response->status != 200) return std::nullopt;
    try {
      auto reply = themis::rpc::Json::parse(response->body);
      if (!reply.has("result")) return std::nullopt;
      if (raw != nullptr) *raw = response->body;
      return reply;
    } catch (const themis::rpc::JsonError&) {
      return std::nullopt;
    }
  }

 private:
  themis::rpc::HttpClient client_;
  Tracer& tracer_;
};

struct TxRecord {
  ledger::TxId id{};
  Clock::time_point due;        ///< when the transfer was due (open loop) or sent
  Clock::time_point confirmed;  ///< when the client saw it confirmed
  bool is_confirmed = false;
};

/// What one client thread observed.
struct ClientLog {
  std::vector<TxRecord> acked;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t transport_errors = 0;
  bool exhausted = false;
  std::vector<double> lateness_ms;
  std::vector<double> submit_rtt_ms, poll_rtt_ms;
  std::string sample_body, sample_reply;
  std::size_t sample_txs = 0;
};

std::string submit_body(const std::vector<PreparedTx>& supply, std::size_t from,
                        std::size_t count, std::uint64_t request_id) {
  std::string body = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(request_id) +
                     ",\"method\":\"submit_txs\",\"params\":{\"txs\":[";
  for (std::size_t i = from; i < from + count; ++i) {
    if (i != from) body += ',';
    body += "{\"raw\":\"";
    body += themis::to_hex(supply[i].raw);
    body += "\"}";
  }
  return body + "]}}";
}

struct Timeline {
  Clock::time_point start, window_begin, window_end, drain_deadline;
};

/// Submit `count` transfers starting at `next`; acknowledged ones join
/// `outstanding` (indices into log.acked).
void submit(RpcConn& conn, const std::vector<PreparedTx>& supply, std::size_t next,
            std::size_t count, Clock::time_point due, ClientLog& log,
            std::vector<std::size_t>& outstanding) {
  const std::string body = submit_body(supply, next, count, next + 1);
  double rtt = 0;
  std::string raw;
  const auto reply = conn.call("submit_txs", body, &rtt,
                               log.sample_txs == 0 ? &raw : nullptr);
  log.submit_rtt_ms.push_back(rtt);
  log.submitted += count;
  if (!reply.has_value()) {
    ++log.transport_errors;
    log.rejected += count;
    return;
  }
  if (log.sample_txs == 0) {
    log.sample_body = body;
    log.sample_reply = raw;
    log.sample_txs = count;
  }
  const themis::rpc::Json& results = (*reply)["result"]["results"];
  for (std::size_t i = 0; i < count; ++i) {
    const themis::rpc::Json* status = nullptr;
    if (results.is_array() && i < results.as_array().size()) {
      status = &results.as_array()[i]["status"];
    }
    if (status != nullptr && status->is_string() &&
        (status->as_string() == "accepted" || status->as_string() == "duplicate")) {
      outstanding.push_back(log.acked.size());
      log.acked.push_back({supply[next + i].id, due, {}, false});
    } else {
      ++log.rejected;
    }
  }
}

/// One get_txs sweep over `outstanding`; confirmed entries leave it.
/// Returns how many confirmed.
std::size_t poll(RpcConn& conn, ClientLog& log, std::vector<std::size_t>& outstanding) {
  if (outstanding.empty()) return 0;
  std::string body =
      "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"get_txs\",\"params\":{\"ids\":[";
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    if (i != 0) body += ',';
    body += '"';
    body += themis::to_hex(log.acked[outstanding[i]].id);
    body += '"';
  }
  body += "]}}";
  double rtt = 0;
  const auto reply = conn.call("get_txs", body, &rtt);
  log.poll_rtt_ms.push_back(rtt);
  if (!reply.has_value()) {
    ++log.transport_errors;
    return 0;
  }
  const auto now = Clock::now();
  const themis::rpc::Json& result = (*reply)["result"]["states"];
  if (!result.is_array() || result.as_array().size() != outstanding.size()) {
    ++log.transport_errors;
    return 0;
  }
  const auto& states = result.as_array();
  std::size_t keep = 0, confirmed = 0;
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    if (states[i].is_string() && states[i].as_string() == "confirmed") {
      TxRecord& rec = log.acked[outstanding[i]];
      rec.confirmed = now;
      rec.is_confirmed = true;
      ++confirmed;
    } else {
      outstanding[keep++] = outstanding[i];
    }
  }
  outstanding.resize(keep);
  return confirmed;
}

void drain(RpcConn& conn, ClientLog& log, std::vector<std::size_t>& outstanding,
           Clock::time_point deadline) {
  while (!outstanding.empty() && Clock::now() < deadline) {
    if (poll(conn, log, outstanding) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollSleepMs));
    }
  }
}

/// Closed loop: keep at most `window` transfers outstanding.
void closed_loop_client(const LiveSpec& spec, const std::vector<PreparedTx>& supply,
                        RpcConn& conn, const Timeline& tl, ClientLog& log) {
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  while (Clock::now() < tl.window_end) {
    if (outstanding.size() + spec.submit_batch <= spec.window) {
      if (next + spec.submit_batch > supply.size()) {
        log.exhausted = true;
        break;
      }
      submit(conn, supply, next, spec.submit_batch, Clock::now(), log, outstanding);
      next += spec.submit_batch;
      continue;
    }
    if (poll(conn, log, outstanding) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollSleepMs));
    }
  }
  drain(conn, log, outstanding, tl.drain_deadline);
}

/// Open loop: batch k is due at start + k * batch / rate, whatever the
/// replies; it is timed from its due time, and lateness is recorded.
void open_loop_client(const LiveSpec& spec, const std::vector<PreparedTx>& supply,
                      RpcConn& conn, const Timeline& tl, ClientLog& log) {
  std::vector<std::size_t> outstanding;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(spec.submit_batch) / spec.tx_rate));
  constexpr auto kPollEvery = std::chrono::milliseconds(10);
  auto next_poll = tl.start;
  std::size_t next = 0;
  for (std::uint64_t k = 0;; ) {
    const auto due = tl.start + interval * static_cast<std::int64_t>(k);
    if (due >= tl.window_end) break;
    const auto now = Clock::now();
    if (now >= due) {
      if (next + spec.submit_batch > supply.size()) {
        log.exhausted = true;
        break;
      }
      log.lateness_ms.push_back(ms_between(due, now));
      submit(conn, supply, next, spec.submit_batch, due, log, outstanding);
      next += spec.submit_batch;
      ++k;
    } else if (!outstanding.empty() && now >= next_poll) {
      poll(conn, log, outstanding);
      next_poll = Clock::now() + kPollEvery;
    } else {
      std::this_thread::sleep_until(
          outstanding.empty() ? due : std::min(due, next_poll));
    }
  }
  drain(conn, log, outstanding, tl.drain_deadline);
}

/// Observer: open-loop balance proofs on node 0, verified client-side, and
/// a 10 ms sample of node 0's finality and pool depth.
struct ObserverLog {
  std::vector<FinalitySample> finality;
  std::vector<double> pool_depth;
  std::vector<double> proof_ms;
  std::uint64_t proofs = 0;
  std::vector<std::string> proof_failures;
};

void observer(const LiveSpec& spec, const std::vector<std::uint32_t>& accounts,
              P2pNode& node, RpcConn& conn, const Timeline& tl,
              const std::atomic<bool>& stop, ObserverLog& log) {
  constexpr auto kSampleEvery = std::chrono::milliseconds(10);
  const auto proof_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.proof_rate));
  auto next_sample = tl.start;
  std::size_t k = 0;
  while (!stop.load()) {
    const auto now = Clock::now();
    const auto due = tl.start + proof_interval * static_cast<std::int64_t>(k);
    if (due < tl.window_end && now >= due && k < accounts.size()) {
      const std::uint32_t account = accounts[k++];
      const auto reply = conn.call(
          "get_balance",
          "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"get_balance\",\"params\":"
          "{\"account\":" + std::to_string(account) + ",\"prove\":true}}");
      ++log.proofs;
      Violations bad = reply.has_value()
                           ? check_balance_proof((*reply)["result"], account)
                           : Violations{"get_balance failed"};
      if (!bad.empty()) {
        log.proof_failures.push_back(bad.front());
      } else if (due >= tl.window_begin) {
        log.proof_ms.push_back(ms_between(due, Clock::now()));
      }
      continue;
    }
    if (now >= next_sample) {
      const auto info = node.finality_info();
      log.finality.push_back({now, info.head_height, info.finalized_height});
      if (now >= tl.window_begin && now < tl.window_end) {
        log.pool_depth.push_back(static_cast<double>(node.pool_depth()));
      }
      next_sample = now + kSampleEvery;
    }
    auto wake = next_sample;
    if (due < tl.window_end && k < accounts.size()) wake = std::min(wake, due);
    std::this_thread::sleep_until(wake);
  }
}

// --- one pass ----------------------------------------------------------------

/// Node-side counters at a point in time (summed over nodes where noted).
struct NodeCounters {
  std::vector<P2pNode::ChainStats> chain;
  std::vector<themis::p2p::PeerManager::Stats> transport;
  std::uint64_t rpc_requests = 0, rpc_errors = 0;
  std::uint64_t head_height = 0;
};

NodeCounters read_counters(Cluster& cluster) {
  NodeCounters c;
  for (std::size_t i = 0; i < cluster.nodes().size(); ++i) {
    c.chain.push_back(cluster.nodes()[i]->chain_stats());
    c.transport.push_back(cluster.nodes()[i]->transport_stats());
    const auto s = cluster.gateway(i).stats();
    c.rpc_requests += s.requests;
    c.rpc_errors += s.errors;
  }
  c.head_height = cluster.nodes()[0]->head_height();
  return c;
}

struct PassResult {
  RunResult r;
  double confirmed_tps = 0;
  double confirm_p50_ms = 0;
};

template <typename Field>
double delta_sum(const NodeCounters& a, const NodeCounters& b, Field field) {
  double total = 0;
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    total += static_cast<double>(field(b.chain[i]) - field(a.chain[i]));
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

PassResult run_pass(const LiveSpec& spec, const Options& opt, const Inputs& in,
                    double seconds, bool traced, int setup_reps,
                    const std::string& tag) {
  PassResult pass;
  RunResult& r = pass.r;
  Tracer tracer(traced);
  EventLog events;
  const std::size_t clients = in.per_client.size();

  // Set-up, repeated: every repetition builds the cluster from a fresh
  // datadir (a copy of the snapshot template for ledger-262k, not timed).
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < setup_reps; ++rep) {
    cluster.reset();
    const fs::path dir = opt.workdir / (tag + "-setup" + std::to_string(rep));
    fs::remove_all(dir);
    fs::create_directories(dir);
    if (!in.template_dir.empty()) {
      fs::copy(in.template_dir, dir / "node-0", fs::copy_options::recursive);
    }
    const bool last = rep + 1 == setup_reps;
    EventLog scratch_events;
    const auto t0 = Clock::now();
    cluster = std::make_unique<Cluster>(spec, dir, tracer, last ? events : scratch_events);
    std::string err;
    const bool ok = cluster->start(
        in.template_dir.empty() ? nullptr : &in.root_state_root, err);
    setup_s.push_back(s_between(t0, Clock::now()));
    if (!ok) {
      cluster.reset();  // its head listeners point into scratch_events
      r.violate("set-up failed: " + err);
      return pass;
    }
    if (!last) {
      cluster.reset();
      fs::remove_all(dir);
    }
  }
  r.set(r.e2e, "setup_s", median(setup_s), "s", setup_s.size());

  // Load.
  Timeline tl;
  tl.start = Clock::now();
  tl.window_begin = tl.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kWarmupS));
  tl.window_end = tl.window_begin + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  tl.drain_deadline = tl.window_end + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(kDrainTimeoutS));
  std::vector<ClientLog> logs(clients);
  std::vector<std::unique_ptr<RpcConn>> conns;
  for (std::size_t c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<RpcConn>(cluster->rpc_port(c % spec.nodes), tracer));
  }
  RpcConn observer_conn(cluster->rpc_port(0), tracer);
  ObserverLog obs_log;
  std::atomic<bool> stop_observer{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (spec.closed_loop) {
        closed_loop_client(spec, in.per_client[c], *conns[c], tl, logs[c]);
      } else {
        open_loop_client(spec, in.per_client[c], *conns[c], tl, logs[c]);
      }
    });
  }
  std::thread observer_thread([&] {
    observer(spec, in.proof_accounts, *cluster->nodes()[0], observer_conn, tl,
             stop_observer, obs_log);
  });

  // Window boundaries: counters, histograms, and the CPU of the process
  // and of every generator thread (this one included).
  std::vector<pthread_t> generator_threads;
  for (auto& t : threads) generator_threads.push_back(t.native_handle());
  generator_threads.push_back(observer_thread.native_handle());
  const auto generator_cpu = [&generator_threads] {
    double total = thread_cpu_s();
    for (const pthread_t t : generator_threads) total += thread_cpu_s(t);
    return total;
  };
  const std::vector<std::string> hist_names = {
      "themis_admit_batch_seconds",        "themis_block_submit_seconds",
      "themis_tx_stage_verify_seconds",    "themis_tx_stage_pool_seconds",
      "themis_tx_stage_inclusion_seconds", "themis_tx_stage_confirm_seconds"};
  std::map<std::string, HistWindow> hists;
  std::this_thread::sleep_until(tl.window_begin);
  const auto regs = cluster->registries();
  for (const auto& name : hist_names) hists[name].begin(regs, name);
  const NodeCounters c0 = read_counters(*cluster);
  const double gen0 = generator_cpu();
  const double cpu0 = process_cpu_s();
  const std::uint64_t finalized0 = cluster->nodes()[0]->finality_info().finalized_height;

  // The window is cut into kSubWindows equal parts; each end-to-end figure
  // is the median over the parts, so a burst of host noise in one part
  // moves the result less than it would move a whole-window figure.
  const auto sub_len = (tl.window_end - tl.window_begin) / kSubWindows;
  std::vector<double> sub_sut_cpu;
  double cpu_prev = cpu0, gen_prev = gen0;
  for (int k = 1; k <= kSubWindows; ++k) {
    std::this_thread::sleep_until(tl.window_begin + sub_len * k);
    const double cpu = process_cpu_s(), gen = generator_cpu();
    sub_sut_cpu.push_back((cpu - cpu_prev) - (gen - gen_prev));
    cpu_prev = cpu;
    gen_prev = gen;
  }
  const double cpu1 = cpu_prev;
  const double gen1 = gen_prev;
  const NodeCounters c1 = read_counters(*cluster);
  for (const auto& name : hist_names) hists[name].end(regs, name);

  for (auto& t : threads) t.join();
  // Keep sampling finality until the window's transfers are final.
  const auto tail_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(kFinalityTailS));
  const std::uint64_t window_top = c1.head_height;
  while (Clock::now() < tail_deadline &&
         cluster->nodes()[0]->finality_info().finalized_height < window_top) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_observer.store(true);
  observer_thread.join();

  // Stop mining and let every node settle on one head.
  cluster->nodes()[0]->set_mining(false);
  const auto settle_deadline = Clock::now() + std::chrono::seconds(10);
  std::vector<NodeView> views;
  while (true) {
    views.clear();
    for (auto& n : cluster->nodes()) {
      views.push_back({n->head_height(), n->head(), n->head_state_root(), n->total_supply()});
    }
    bool same = true;
    for (const auto& v : views) same = same && v.head == views[0].head;
    if (same || Clock::now() > settle_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::uint64_t finalized_end = cluster->nodes()[0]->finality_info().finalized_height;

  // Node 0's main chain, root to head.
  std::vector<ledger::BlockPtr> chain;
  for (auto info = cluster->nodes()[0]->block_info(cluster->nodes()[0]->head());
       info.has_value() && info->block->header().height > 0;) {
    chain.push_back(info->block);
    const auto parent = info->block->header().prev;
    info = cluster->nodes()[0]->block_info(parent);
    if (in.root != nullptr && parent == in.root->id()) break;
  }
  std::reverse(chain.begin(), chain.end());
  std::unordered_map<ledger::TxId, std::uint64_t, themis::Hash32Hasher> tx_height;
  std::vector<ledger::TxId> chain_txs;
  for (const auto& b : chain) {
    for (const auto& tx : b->transactions()) {
      chain_txs.push_back(tx.id());
      tx_height[tx.id()] = b->header().height;
    }
  }

  // --- correctness --------------------------------------------------------
  std::vector<ledger::TxId> acked;
  std::uint64_t unconfirmed = 0, transport_errors = 0;
  for (const ClientLog& log : logs) {
    transport_errors += log.transport_errors;
    r.attempted += log.submitted;
    r.failed += log.rejected;
    if (log.rejected > 0) {
      r.violations.push_back(std::to_string(log.rejected) + " transfers rejected or lost");
    }
    if (log.exhausted) r.violate("pre-signed supply exhausted");
    for (const TxRecord& rec : log.acked) {
      acked.push_back(rec.id);
      unconfirmed += !rec.is_confirmed;
    }
  }
  if (unconfirmed > 0) {
    r.failed += unconfirmed;
    r.violations.push_back(std::to_string(unconfirmed) +
                           " acknowledged transfers never seen confirmed");
  }
  r.attempted += obs_log.proofs;
  for (const auto& f : obs_log.proof_failures) r.violate(f);
  for (auto& v : check_exactly_once(acked, chain_txs)) r.violate(std::move(v));
  for (auto& v : check_nodes_agree(views, in.supply)) r.violate(std::move(v));
  for (auto& v : check_finality_advanced(finalized0, finalized_end)) r.violate(std::move(v));

  // --- end-to-end ----------------------------------------------------------
  struct SubWindow {
    std::vector<double> confirm_ms;
    std::vector<Clock::time_point> confirms;
  };
  std::vector<SubWindow> subs(kSubWindows);
  const auto sub_of = [&](Clock::time_point t) {
    return std::min<std::size_t>(static_cast<std::size_t>((t - tl.window_begin) / sub_len),
                                 kSubWindows - 1);
  };
  std::vector<double> confirm_ms, finality_ms, lateness;
  std::vector<Clock::time_point> all_confirms;
  for (const ClientLog& log : logs) {
    lateness.insert(lateness.end(), log.lateness_ms.begin(), log.lateness_ms.end());
    for (const TxRecord& rec : log.acked) {
      if (rec.is_confirmed && rec.confirmed >= tl.window_begin &&
          rec.confirmed < tl.window_end) {
        subs[sub_of(rec.confirmed)].confirms.push_back(rec.confirmed);
        all_confirms.push_back(rec.confirmed);
      }
      if (rec.due < tl.window_begin || rec.due >= tl.window_end || !rec.is_confirmed) {
        continue;
      }
      confirm_ms.push_back(ms_between(rec.due, rec.confirmed));
      subs[sub_of(rec.due)].confirm_ms.push_back(confirm_ms.back());
      const auto h = tx_height.find(rec.id);
      if (h == tx_height.end()) continue;
      for (const FinalitySample& s : obs_log.finality) {
        if (s.finalized >= h->second && s.at >= rec.due) {
          finality_ms.push_back(ms_between(rec.due, s.at));
          break;
        }
      }
    }
  }
  // Confirmations land in bursts, one per block, so a part's rate is taken
  // between the last burst before it and its own last burst.
  std::sort(all_confirms.begin(), all_confirms.end());
  std::vector<double> sub_tps, sub_cpu, sub_p50, sub_p90, sub_p99;
  Clock::time_point prev_last = tl.window_begin;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    const auto& c = subs[k].confirms;
    if (c.empty()) {
      sub_tps.push_back(0);
      continue;
    }
    const Clock::time_point last = *std::max_element(c.begin(), c.end());
    sub_tps.push_back(ratio(static_cast<double>(c.size()), s_between(prev_last, last)));
    prev_last = last;
    sub_cpu.push_back(sub_sut_cpu[k] * 1e6 / static_cast<double>(c.size()));
    sub_p50.push_back(quantile(subs[k].confirm_ms, 0.5));
    sub_p90.push_back(quantile(subs[k].confirm_ms, 0.9));
    sub_p99.push_back(quantile(subs[k].confirm_ms, 0.99));
  }
  const std::uint64_t confirmed_in_window = all_confirms.size();
  const double sut_cpu_s = (cpu1 - cpu0) - (gen1 - gen0);
  const double cpu_per_tx =
      ratio(sut_cpu_s * 1e6, static_cast<double>(confirmed_in_window));
  pass.confirmed_tps = median(sub_tps);
  pass.confirm_p50_ms = median(sub_p50);
  r.set(r.e2e, "confirmed_tps", pass.confirmed_tps, "tx/s", confirmed_in_window);
  r.set(r.e2e, "confirm_p50_ms", pass.confirm_p50_ms, "ms", confirm_ms.size());
  r.set(r.e2e, "confirm_p90_ms", median(sub_p90), "ms", confirm_ms.size());
  r.set(r.extra, "confirm_p99_ms", median(sub_p99), "ms", confirm_ms.size());
  r.set(r.e2e, "cpu_us_per_tx", median(sub_cpu), "us", confirmed_in_window);
  r.set(r.extra, "window_confirm_p50_ms", quantile(confirm_ms, 0.5), "ms", confirm_ms.size());
  r.set(r.extra, "window_confirm_p99_ms", quantile(confirm_ms, 0.99), "ms", confirm_ms.size());
  r.set(r.extra, "window_cpu_us_per_tx", cpu_per_tx, "us", confirmed_in_window);
  r.set(r.extra, "finality_p50_ms", quantile(finality_ms, 0.5), "ms", finality_ms.size());
  r.set(r.extra, "proof_p50_ms", quantile(obs_log.proof_ms, 0.5), "ms",
        obs_log.proof_ms.size());
  r.set(r.extra, "proof_p90_ms", quantile(obs_log.proof_ms, 0.9), "ms",
        obs_log.proof_ms.size());
  r.set(r.extra, "rpc_transport_errors", static_cast<double>(transport_errors), "count", 1);
  r.set(r.extra, "generator_cpu_s", gen1 - gen0, "s", generator_threads.size() + 1);
  r.set(r.extra, "finalized_height", static_cast<double>(finalized_end), "height", 1);
  if (!spec.closed_loop) {
    r.set(r.extra, "lateness_p50_ms", quantile(lateness, 0.5), "ms", lateness.size());
    r.set(r.extra, "lateness_max_ms", quantile(lateness, 1.0), "ms", lateness.size());
  }
  if (finality_ms.empty()) r.violate("no transfer of the window reached finality");

  // --- per-layer -----------------------------------------------------------
  const double confirmed = static_cast<double>(std::max<std::uint64_t>(1, confirmed_in_window));
  const double blocks_in_window = static_cast<double>(c1.head_height - c0.head_height);
  std::vector<double> submit_rtt, poll_rtt;
  for (const ClientLog& log : logs) {
    submit_rtt.insert(submit_rtt.end(), log.submit_rtt_ms.begin(), log.submit_rtt_ms.end());
    poll_rtt.insert(poll_rtt.end(), log.poll_rtt_ms.begin(), log.poll_rtt_ms.end());
  }
  auto& L = r.layer;
  r.set(L, "rpc.submit_rtt_p50_ms", quantile(submit_rtt, 0.5), "ms", submit_rtt.size());
  r.set(L, "rpc.submit_rtt_p99_ms", quantile(submit_rtt, 0.99), "ms", submit_rtt.size());
  r.set(L, "rpc.poll_rtt_p50_ms", quantile(poll_rtt, 0.5), "ms", poll_rtt.size());
  r.set(L, "rpc.requests", static_cast<double>(c1.rpc_requests - c0.rpc_requests), "count", 1);
  r.set(L, "rpc.errors", static_cast<double>(c1.rpc_errors - c0.rpc_errors), "count", 1);

  const auto& admit = hists["themis_admit_batch_seconds"];
  r.set(L, "p2p.admit_batch_p50_ms", admit.quantile_ms(0.5), "ms", admit.count());
  r.set(L, "p2p.admit_batch_p99_ms", admit.quantile_ms(0.99), "ms", admit.count());
  r.set(L, "p2p.admit_batches", static_cast<double>(admit.count()), "count", 1);
  const double admissions =
      delta_sum(c0, c1, [](const P2pNode::ChainStats& s) { return s.txs_submitted; });
  const double accepted =
      delta_sum(c0, c1, [](const P2pNode::ChainStats& s) { return s.txs_accepted; });
  r.set(L, "p2p.txs_per_admit_batch", ratio(admissions, static_cast<double>(admit.count())),
        "tx", admit.count());
  const auto& verify = hists["themis_tx_stage_verify_seconds"];
  r.set(L, "p2p.verify_stage_p50_ms", verify.quantile_ms(0.5), "ms", verify.count());
  r.set(L, "p2p.admissions_per_confirmed_tx", admissions / confirmed, "ratio", 1);
  double bytes_out = 0;
  for (std::size_t i = 0; i < c0.transport.size(); ++i) {
    bytes_out += static_cast<double>(c1.transport[i].bytes_out - c0.transport[i].bytes_out);
  }
  r.set(L, "p2p.bytes_out_per_tx", bytes_out / confirmed, "B", 1);
  r.set(L, "p2p.tx_inv_redundant_ratio",
        ratio(delta_sum(c0, c1, [](const auto& s) { return s.tx_invs_redundant; }),
              delta_sum(c0, c1, [](const auto& s) { return s.tx_invs_received; })),
        "ratio", 1);
  r.set(L, "p2p.block_inv_redundant_ratio",
        ratio(delta_sum(c0, c1, [](const auto& s) { return s.invs_redundant; }),
              delta_sum(c0, c1, [](const auto& s) { return s.invs_received; })),
        "ratio", 1);
  {
    // Propagation: a block's head-change time on each other node minus its
    // head-change time on the miner (node 0).
    std::unordered_map<ledger::BlockHash, Clock::time_point, themis::Hash32Hasher> at_miner;
    const auto heads = events.heads();
    for (const HeadEvent& e : heads) {
      if (e.node == 0) at_miner.emplace(e.head, e.at);
    }
    std::vector<double> prop;
    for (const HeadEvent& e : heads) {
      if (e.node == 0 || e.at < tl.window_begin || e.at >= tl.window_end) continue;
      if (const auto it = at_miner.find(e.head); it != at_miner.end()) {
        prop.push_back(ms_between(it->second, e.at));
      }
    }
    r.set(L, "p2p.block_propagation_p50_ms", quantile(prop, 0.5), "ms", prop.size());
    std::vector<double> intervals;
    Clock::time_point last{};
    for (const HeadEvent& e : heads) {
      if (e.node != 0 || e.at < tl.window_begin || e.at >= tl.window_end) continue;
      if (last != Clock::time_point{}) intervals.push_back(ms_between(last, e.at));
      last = e.at;
    }
    r.set(L, "consensus.block_interval_p50_ms", quantile(intervals, 0.5), "ms",
          intervals.size());
    if (traced) {
      for (const HeadEvent& e : heads) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            e.at.time_since_epoch()).count();
        tracer.record({tracer.next_id(), 0, "node" + std::to_string(e.node) + ".head_change",
                       ns, ns});
      }
    }
  }
  r.set(L, "crypto.verifies_per_confirmed_tx", accepted / confirmed, "ratio", 1);
  r.set(L, "ledger.pool_depth_p50", quantile(obs_log.pool_depth, 0.5), "tx",
        obs_log.pool_depth.size());
  const auto& pool_stage = hists["themis_tx_stage_pool_seconds"];
  r.set(L, "ledger.pool_stage_p50_ms", pool_stage.quantile_ms(0.5), "ms", pool_stage.count());
  const auto& confirm_stage = hists["themis_tx_stage_confirm_seconds"];
  r.set(L, "state.confirm_stage_p50_ms", confirm_stage.quantile_ms(0.5), "ms",
        confirm_stage.count());
  double window_txs = 0, window_blocks = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto h = chain[i]->header().height;
    if (h > c0.head_height && h <= c1.head_height) {
      window_txs += static_cast<double>(chain[i]->transactions().size());
      window_blocks += 1;
    }
  }
  r.set(L, "consensus.txs_per_block_mean", ratio(window_txs, window_blocks), "tx",
        static_cast<std::uint64_t>(window_blocks));
  const auto& submit_hist = hists["themis_block_submit_seconds"];
  r.set(L, "consensus.block_submit_p50_ms", submit_hist.quantile_ms(0.5), "ms",
        submit_hist.count());
  r.set(L, "consensus.block_submit_p99_ms", submit_hist.quantile_ms(0.99), "ms",
        submit_hist.count());
  const auto& inclusion = hists["themis_tx_stage_inclusion_seconds"];
  r.set(L, "consensus.inclusion_stage_p50_ms", inclusion.quantile_ms(0.5), "ms",
        inclusion.count());
  r.set(L, "consensus.reorgs", delta_sum(c0, c1, [](const auto& s) { return s.reorgs; }),
        "count", 1);
  r.set(L, "consensus.blocks_rejected",
        delta_sum(c0, c1, [](const auto& s) { return s.blocks_rejected; }), "count", 1);
  {
    // Checkpoint latency: the head first reaching a checkpoint height, to
    // that height being finalized (node 0's samples).
    std::vector<double> ckpt;
    std::map<std::uint64_t, Clock::time_point> reached;
    for (const FinalitySample& s : obs_log.finality) {
      const std::uint64_t top = s.head_height / kCheckpointInterval * kCheckpointInterval;
      if (top > 0 && !reached.contains(top)) reached[top] = s.at;
    }
    std::set<std::uint64_t> done;
    for (const FinalitySample& s : obs_log.finality) {
      for (const auto& [height, at] : reached) {
        if (height > s.finalized) break;
        if (done.insert(height).second && at >= tl.window_begin && at < tl.window_end) {
          ckpt.push_back(ms_between(at, s.at));
        }
      }
    }
    r.set(L, "finality.checkpoint_p50_ms", quantile(ckpt, 0.5), "ms", ckpt.size());
  }
  r.set(L, "finality.certs", static_cast<double>(c1.chain[0].ckpt_certs_formed -
                                                 c0.chain[0].ckpt_certs_formed),
        "count", 1);
  r.set(L, "finality.votes_rejected",
        delta_sum(c0, c1, [](const auto& s) { return s.ckpt_votes_rejected; }), "count", 1);

  // Server-side handler time and transport (client span minus its handler
  // span), from the trace.
  if (traced) {
    const auto spans = tracer.spans();
    const auto self = self_times_ms(spans);
    std::map<std::string, std::vector<double>> by_name;
    std::vector<double> transport;
    for (const Span& s : spans) {
      by_name[s.name].push_back(s.duration_ms());
      if (s.name.rfind("client.", 0) == 0) transport.push_back(self.at(s.id));
    }
    r.set(L, "rpc.handle_submit_p50_ms", quantile(by_name["server.submit_txs"], 0.5), "ms",
          by_name["server.submit_txs"].size());
    r.set(L, "rpc.handle_poll_p50_ms", quantile(by_name["server.get_txs"], 0.5), "ms",
          by_name["server.get_txs"].size());
    r.set(L, "rpc.handle_proof_p50_ms", quantile(by_name["server.get_balance"], 0.5), "ms",
          by_name["server.get_balance"].size());
    r.set(L, "rpc.transport_p50_ms", quantile(transport, 0.5), "ms", transport.size());
  }

  cluster->stop();

  // --- replay ------------------------------------------------------------------
  if (traced) {
    ReplayInput rin;
    for (std::size_t c = 0; c < clients && rin.txs.size() < 1024; ++c) {
      for (std::size_t i = 0; i < std::min<std::size_t>(in.per_client[c].size(), 1024 / clients);
           ++i) {
        rin.txs.push_back(ledger::SignedTransaction::decode(in.per_client[c][i].raw));
      }
    }
    themis::state::LedgerState genesis_state;
    if (in.root != nullptr) {
      rin.root = in.root;
      rin.root_state = &in.root_state;
    } else {
      rin.root = std::make_shared<const ledger::Block>(ledger::Block::genesis());
      for (std::size_t i = 0; i < spec.nodes; ++i) {
        genesis_state.fund(static_cast<ledger::NodeId>(i),
                           themis::UInt128(themis::p2p::P2pNodeConfig{}.genesis_fund));
      }
      rin.root_state = &genesis_state;
    }
    rin.blocks = chain;
    rin.n_nodes = spec.nodes;
    rin.checkpoint_interval = kCheckpointInterval;
    rin.submit_body = logs[0].sample_body;
    rin.submit_reply = logs[0].sample_reply;
    rin.submit_txs = logs[0].sample_txs;
    rin.proof_accounts = in.proof_accounts;
    rin.workdir = opt.workdir;
    const ReplayResult rp = replay_layers(rin, tracer);
    for (const auto& v : rp.violations) r.violate(v);
    r.set(L, "rpc.json_us_per_tx", rp.json_us_per_tx, "us", 1);
    r.set(L, "p2p.codec_us_per_tx", rp.codec_us_per_tx, "us", 1);
    r.set(L, "crypto.verify_us_per_sig", rp.verify_us_per_sig, "us", 1);
    r.set(L, "crypto.hash_ns", rp.hash_ns, "ns", 1);
    r.set(L, "ledger.pool_add_us", rp.pool_add_us, "us", 1);
    r.set(L, "ledger.pool_select_us_per_block", rp.pool_select_us_per_block, "us", 1);
    r.set(L, "ledger.validate_us_per_block", rp.validate_us_per_block, "us", 1);
    r.set(L, "ledger.store_append_us_per_block", rp.store_append_us_per_block, "us", 1);
    r.set(L, "ledger.store_bytes_per_tx", rp.store_bytes_per_tx, "B", 1);
    r.set(L, "state.exec_us_per_tx", rp.exec_us_per_tx, "us", 1);
    r.set(L, "state.materialize_ms_per_block", rp.materialize_ms_per_block, "ms", 1);
    r.set(L, "state.root_update_ms_per_block", rp.root_update_ms_per_block, "ms", 1);
    r.set(L, "state.prove_ms", rp.prove_ms, "ms", 1);
    r.set(L, "state.dirty_pages_per_block", rp.dirty_pages_per_block, "count", 1);
    r.set(L, "consensus.forkchoice_insert_us", rp.forkchoice_insert_us, "us", 1);
    r.set(L, "finality.vote_add_us", rp.vote_add_us, "us", 1);

    // Attribution: replayed service time of every layer, scaled by how
    // often the run invoked it per confirmed transfer.  The mining node's
    // miner thread grinds all the time and also submits its own blocks
    // (validation, execution, state, store), so it counts as one core for
    // the window; per-block layers are counted on the other nodes only.
    constexpr double kMiners = 1;
    const double n = static_cast<double>(spec.nodes);
    const double blocks_per_tx = blocks_in_window / confirmed;
    const double votes_per_tx =
        delta_sum(c0, c1, [](const auto& s) { return s.ckpt_votes_accepted; }) / confirmed;
    const double proofs_per_tx =
        static_cast<double>(obs_log.proof_ms.size()) / confirmed;
    const double per_block_us =
        rp.validate_us_per_block + rp.store_append_us_per_block + rp.forkchoice_insert_us +
        (rp.materialize_ms_per_block + rp.root_update_ms_per_block) * 1e3;
    const double layer_sum =
        rp.verify_us_per_sig * (accepted / confirmed) + rp.json_us_per_tx +
        rp.codec_us_per_tx * (n - 1) + rp.pool_add_us * (accepted / confirmed) +
        rp.vote_add_us * votes_per_tx + rp.prove_ms * 1e3 * proofs_per_tx +
        (n - kMiners) * (rp.exec_us_per_tx + per_block_us * blocks_per_tx) +
        kMiners * seconds * 1e6 / confirmed;
    r.set(L, "attribution.layer_sum_us_per_tx", layer_sum, "us", 1);
    r.set(L, "attribution.cpu_us_per_tx", cpu_per_tx, "us", 1);
    r.set(L, "attribution.remainder_us_per_tx", cpu_per_tx - layer_sum, "us", 1);

    const fs::path span_file =
        opt.workdir / ("spans-" + spec.name + "-" + std::to_string(opt.seed) + ".jsonl");
    if (!tracer.write_jsonl(span_file)) r.violate("cannot write " + span_file.string());
    r.params["span_file"] = span_file.filename().string();
  }
  return pass;
}

LiveSpec pipeline_spec() {
  LiveSpec s;
  s.name = "pipeline-3n";
  s.nodes = 3;
  s.difficulty = 6000;
  s.closed_loop = true;
  s.window = 300;
  s.submit_batch = 50;
  s.proof_rate = 4;
  s.accounts = 3;
  s.supply_rate = 4000;
  return s;
}

LiveSpec ledger_spec() {
  LiveSpec s;
  s.name = "ledger-262k";
  s.nodes = 1;
  s.difficulty = 30000;
  s.closed_loop = false;
  s.tx_rate = 200;
  s.submit_batch = 10;
  s.proof_rate = 4;
  s.accounts = 262144;
  return s;
}

RunResult run_live(const LiveSpec& spec, const Options& opt) {
  const std::size_t clients = spec.closed_loop ? spec.nodes : 1;
  if (clients + 1 > nproc()) {
    RunResult r;
    r.attempted = 1;
    r.violate("needs " + std::to_string(clients + 1) +
              " generator threads, more than the " + std::to_string(nproc()) +
              " cores");
    return r;
  }
  // Inputs, excluded from every timing.
  Inputs in;
  const double load_s = kWarmupS + opt.seconds;
  const std::size_t per_client =
      spec.closed_loop
          ? static_cast<std::size_t>(spec.supply_rate * load_s)
          : static_cast<std::size_t>(spec.tx_rate * load_s) + 2 * spec.submit_batch;
  const auto t_prep = Clock::now();
  in.per_client = presign(spec, opt.seed, clients, per_client);
  std::mt19937_64 rng(opt.seed ^ 0x70726F6F66ULL);
  for (std::size_t i = 0; i < static_cast<std::size_t>(spec.proof_rate * load_s) + 8; ++i) {
    in.proof_accounts.push_back(static_cast<std::uint32_t>(rng() % spec.accounts));
  }
  if (spec.accounts > spec.nodes) {
    in.template_dir = opt.workdir / (spec.name + "-template");
    write_snapshot_template(spec, in);
    in.supply = in.root_state.total_supply();
  } else {
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      in.supply += themis::UInt128(themis::p2p::P2pNodeConfig{}.genesis_fund);
    }
  }
  const double prep_s = s_between(t_prep, Clock::now());

  // Peak RSS of the system under test: the generator's inputs are already
  // resident, so the peak is re-based here and the inputs' footprint
  // subtracted.
  const double base_rss = rss_mb();
  const bool reset = reset_peak_rss();

  RunResult r;
  if (!opt.trace) {
    PassResult pass = run_pass(spec, opt, in, opt.seconds, false, kSetupReps, spec.name);
    r = std::move(pass.r);
  } else {
    // Traced run: an untraced pass and a traced pass of half the window
    // each; the difference is the tracing overhead.
    PassResult plain = run_pass(spec, opt, in, opt.seconds / 2, false, 1, spec.name + "-plain");
    PassResult traced = run_pass(spec, opt, in, opt.seconds / 2, true, 1, spec.name + "-traced");
    r = std::move(traced.r);
    for (auto& v : plain.r.violations) r.violations.push_back("untraced pass: " + v);
    r.attempted += plain.r.attempted;
    r.failed += plain.r.failed;
    r.set(r.layer, "trace.overhead_pct",
          ratio(plain.confirmed_tps - traced.confirmed_tps, plain.confirmed_tps) * 100.0,
          "%", 2);
    r.set(r.extra, "trace_overhead_confirm_p50_ms",
          traced.confirm_p50_ms - plain.confirm_p50_ms, "ms", 2);
  }
  r.set(r.e2e, "peak_rss_mb",
        reset ? peak_rss_mb() - base_rss : peak_rss_mb(), "MB", 1);
  if (opt.trace && !spec.closed_loop) add_sim_layers(opt, r);
  r.params["prep_s"] = std::to_string(prep_s);
  r.params["presigned_per_client"] = std::to_string(per_client);
  r.params["nodes"] = std::to_string(spec.nodes);
  r.params["difficulty"] = std::to_string(spec.difficulty);
  r.params["accounts"] = std::to_string(spec.accounts);
  r.params["load"] =
      spec.closed_loop
          ? "closed loop, " + std::to_string(clients) + " clients x " +
                std::to_string(spec.window) + " outstanding, batches of " +
                std::to_string(spec.submit_batch)
          : "open loop, " + std::to_string(spec.tx_rate) + " tx/s in batches of " +
                std::to_string(spec.submit_batch);
  r.params["proof_rate"] = std::to_string(spec.proof_rate);
  r.params["warmup_s"] = std::to_string(kWarmupS);
  fs::remove_all(opt.workdir / (spec.name + "-template"));
  for (const auto& entry : fs::directory_iterator(opt.workdir)) {
    if (entry.is_directory() && entry.path().filename().string().rfind(spec.name, 0) == 0) {
      fs::remove_all(entry.path());
    }
  }
  return r;
}

}  // namespace

RunResult run_pipeline(const Options& opt) { return run_live(pipeline_spec(), opt); }
RunResult run_ledger(const Options& opt) { return run_live(ledger_spec(), opt); }

}  // namespace perfbench
