// A blocking keep-alive HTTP/1.1 client for themis-cli and perfbench.  One
// instance = one connection; not thread-safe (each benchmark client thread
// owns its own client, which is exactly the keep-alive behaviour the
// benchmark wants to measure).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "p2p/socket.h"

namespace themis::rpc {

struct HttpResult {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port, int timeout_ms = 5000);

  /// POST `body` to `target` (Content-Type: application/json).  Reconnects
  /// once on a dead keep-alive connection.  nullopt = transport failure.
  std::optional<HttpResult> post(const std::string& target,
                                 const std::string& body);
  std::optional<HttpResult> get(const std::string& target);

  bool connected() const { return socket_.valid(); }
  void close() { socket_.close(); }

 private:
  bool ensure_connected();
  std::optional<HttpResult> roundtrip(const std::string& request);
  std::optional<HttpResult> read_response();

  std::string host_;
  std::uint16_t port_;
  int timeout_ms_;
  p2p::TcpSocket socket_;
  std::string buffer_;  ///< bytes past the previous response
};

}  // namespace themis::rpc
