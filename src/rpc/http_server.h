// An epoll-reactor HTTP/1.1 server for the RPC gateway.
//
// One reactor thread owns every connection: it accepts non-blockingly,
// drives per-connection read/write buffers (partial reads AND partial
// writes) off an epoll set, and hands each fully-parsed request to a pool of
// kHttpWorkers threads so a slow handler — transaction admission verifies
// signatures and waits for the consensus lock on the worker — never parks
// the event loop.  Workers return the serialized response through a
// completion queue + eventfd; connections are keyed by id, so a connection
// dropped while its request is in flight simply orphans the completion
// instead of dangling a pointer.
//
// Written for untrusted clients:
//   * the request head (request line + headers) is capped (400 beyond it),
//   * bodies are capped at max_body_bytes (413 Payload Too Large),
//   * concurrent connections are capped (503 Service Unavailable, the
//     consortium analogue of load shedding),
//   * a connection that stalls mid-request (or mid-response) for one full
//     recv_timeout_ms is dropped by a periodic sweep (slowloris guard);
//     idle keep-alive connections survive indefinitely,
//   * while a request is being handled its connection stops reading
//     (EPOLLIN off) — one request in flight per connection, pipelined
//     keep-alive requests wait in the read buffer.
//
// Graceful shutdown: stop() wakes the reactor via the eventfd, joins it
// (closing every connection), then drains the worker pool — no handler
// outlives the server object.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "p2p/socket.h"

namespace themis::rpc {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string target;  ///< request path, e.g. "/" or "/status"
  /// Header fields, names lower-cased (HTTP headers are case-insensitive).
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

struct HttpServerConfig {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back with port())
  std::size_t max_head_bytes = 8 * 1024;
  std::size_t max_body_bytes = 1 << 20;
  std::size_t max_connections = 64;
  /// Stall budget: a connection mid-request or mid-response that makes no
  /// progress for this long is dropped.  Idle keep-alive is exempt.
  int recv_timeout_ms = 10000;
};

/// Handler worker threads per server.
inline constexpr std::size_t kHttpWorkers = 8;

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerConfig config, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + start the reactor.  False if the port cannot be bound.
  bool start();
  void stop();

  std::uint16_t port() const { return listener_.port(); }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;      ///< 400 (parse failures)
    std::uint64_t oversized_bodies = 0;  ///< 413
    std::uint64_t rejected_busy = 0;     ///< 503 (connection cap)
  };
  Stats stats() const;

 private:
  /// Connection lifecycle: reading a request, waiting on the handler,
  /// flushing the response, then back to reading (keep-alive) or gone.
  enum class ConnState { reading, dispatched, writing };

  struct Conn {
    std::uint64_t id = 0;
    p2p::TcpSocket socket;
    ConnState state = ConnState::reading;
    std::string in;   ///< bytes received, not yet consumed
    std::string out;  ///< response bytes not yet flushed
    std::size_t out_off = 0;
    bool close_after_write = false;
    bool peer_half_closed = false;  ///< recv saw EOF; respond, then drop
    /// Head parsed, collecting `content_length` body bytes into `in`.
    bool reading_body = false;
    HttpRequest request;
    std::size_t content_length = 0;
    /// Last read/write progress (steady ms), for the stall sweep.
    std::int64_t last_activity_ms = 0;
  };

  /// A worker-completed response on its way back to the reactor.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
    bool close = false;
  };

  void reactor_loop();
  void accept_ready();
  /// Handle readability; false drops the connection.
  bool conn_readable(Conn& conn);
  /// Parse buffered bytes, dispatch a complete request, or emit an error
  /// response; false drops the connection.
  bool advance(Conn& conn);
  /// Flush pending response bytes; false drops the connection.
  bool flush(Conn& conn);
  /// Queue `response` on `conn` and switch it to writing.
  void start_write(Conn& conn, std::string bytes, bool close);
  void drop(std::uint64_t conn_id);
  void apply_completions();
  void sweep_stalled();
  void update_epoll(Conn& conn, bool want_read, bool want_write);
  std::int64_t now_ms() const;

  HttpServerConfig config_;
  Handler handler_;
  p2p::TcpListener listener_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread reactor_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Reactor-owned: only the reactor thread touches the map or any Conn.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd

  std::unique_ptr<TaskPool> pool_;
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_bad_requests_{0};
  std::atomic<std::uint64_t> stat_oversized_{0};
  std::atomic<std::uint64_t> stat_busy_{0};
};

}  // namespace themis::rpc
