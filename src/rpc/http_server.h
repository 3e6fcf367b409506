// A thread-per-connection HTTP/1.1 server for the RPC gateway.
//
// One accept thread parks in TcpListener::accept(); every accepted
// connection gets a thread of its own that reads a request, runs the
// handler and writes the response on its blocking socket, then reads the
// next (keep-alive; pipelined requests wait in its read buffer).  This is
// PeerManager's model: a consortium endpoint serves a handful of keep-alive
// clients, so a slow handler — transaction admission verifies signatures
// and waits for the consensus lock — parks only its own connection.
//
// Written for untrusted clients:
//   * the request head (request line + headers) is capped (400 beyond it),
//   * bodies are capped at max_body_bytes (413 Payload Too Large),
//   * concurrent connections are capped (503 Service Unavailable, the
//     consortium analogue of load shedding),
//   * recv_timeout_ms is each socket's send and receive timeout: a
//     connection that stalls mid-request (or mid-response) for that long is
//     dropped (slowloris guard); idle keep-alive connections survive
//     indefinitely.
//
// A connection thread that ends shuts its socket down at once and is
// joined by the next accept.  Graceful shutdown: stop() interrupts the
// listener, shuts down every connection's socket and joins every thread —
// no handler outlives the server object.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerConfig config, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + start the accept thread.  False if the port cannot be bound.
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
  struct Conn {
    p2p::TcpSocket socket;
    std::thread thread;
    std::atomic<bool> done{false};  ///< thread finished; join and drop
  };

  void accept_loop();
  /// Serve requests on `socket` until the peer leaves, a request fails, or
  /// the server stops.
  void serve(p2p::TcpSocket& socket);

  HttpServerConfig config_;
  Handler handler_;
  p2p::TcpListener listener_;

  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Touched only by the accept thread, and by stop() once it is joined.
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_bad_requests_{0};
  std::atomic<std::uint64_t> stat_oversized_{0};
  std::atomic<std::uint64_t> stat_busy_{0};
};

}  // namespace themis::rpc
