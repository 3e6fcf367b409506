#include "rpc/http_server.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <utility>

namespace themis::rpc {

namespace {

constexpr std::size_t kRecvChunk = 16384;

std::string status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Serialize one response to wire bytes.  `close` sets Connection: close.
std::string serialize_response(const HttpResponse& response, bool close) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"" + message + "\"}";
  return serialize_response(response, /*close=*/true);
}

/// Parse "METHOD SP target SP HTTP/1.x" + header lines out of `head`.
bool parse_head(const std::string& head, HttpRequest& request) {
  std::size_t pos = head.find("\r\n");
  if (pos == std::string::npos) return false;
  const std::string request_line = head.substr(0, pos);

  const std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request.method = request_line.substr(0, sp1);
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return false;
  if (request.method.empty() || request.target.empty()) return false;

  pos += 2;
  while (pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) return false;
    if (eol == pos) break;  // blank line: end of headers
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return false;
    std::string name = lower(line.substr(0, colon));
    std::string value = line.substr(colon + 1);
    // Trim optional whitespace around the value.
    const std::size_t first = value.find_first_not_of(" \t");
    const std::size_t last = value.find_last_not_of(" \t");
    value = first == std::string::npos
                ? std::string()
                : value.substr(first, last - first + 1);
    request.headers[std::move(name)] = std::move(value);
    pos = eol + 2;
  }
  return true;
}

bool send_text(p2p::TcpSocket& socket, const std::string& bytes) {
  return socket.send_all(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

}  // namespace

HttpServer::HttpServer(HttpServerConfig config, Handler handler)
    : config_(config), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (started_) return true;
  if (!listener_.listen(config_.port)) return false;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

void HttpServer::stop() {
  if (!started_) return;
  stopping_.store(true);
  listener_.interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  // A handler still running finishes first; its response then fails on the
  // shut-down socket.
  for (const auto& conn : conns_) conn->socket.shutdown();
  for (const auto& conn : conns_) conn->thread.join();
  conns_.clear();
  listener_.close();
  started_ = false;
}

HttpServer::Stats HttpServer::stats() const {
  Stats out;
  out.connections_accepted = stat_connections_.load();
  out.requests = stat_requests_.load();
  out.bad_requests = stat_bad_requests_.load();
  out.oversized_bodies = stat_oversized_.load();
  out.rejected_busy = stat_busy_.load();
  return out;
}

void HttpServer::accept_loop() {
  for (;;) {
    auto socket = listener_.accept();
    if (!socket.has_value() || stopping_.load()) return;
    stat_connections_.fetch_add(1);
    socket->set_nodelay(true);
    socket->set_timeouts(config_.recv_timeout_ms, config_.recv_timeout_ms);

    std::erase_if(conns_, [](const std::unique_ptr<Conn>& conn) {
      if (!conn->done.load()) return false;
      conn->thread.join();
      return true;  // closes the socket
    });
    if (conns_.size() >= config_.max_connections) {
      // Load shed: one 503, then close.
      stat_busy_.fetch_add(1);
      send_text(*socket, error_response(503, "too many connections"));
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(*socket);
    Conn* const c = conn.get();
    c->thread = std::thread([this, c] {
      serve(c->socket);
      c->socket.shutdown();
      c->done.store(true);
    });
    conns_.push_back(std::move(conn));
  }
}

void HttpServer::serve(p2p::TcpSocket& socket) {
  std::string in;  // bytes received, not yet consumed
  // Append the next bytes to `in`; false ends the connection.  A receive
  // timeout ends it only mid-request: idle keep-alive waits on.
  const auto receive = [&](bool mid_request) {
    std::uint8_t chunk[kRecvChunk];
    for (;;) {
      const int n = socket.recv_some(chunk, sizeof chunk);
      if (n > 0) {
        in.append(reinterpret_cast<const char*>(chunk),
                  static_cast<std::size_t>(n));
        return true;
      }
      if (n == -1 && !mid_request) continue;
      return false;  // closed, shut down, failed, or stalled mid-request
    }
  };
  const auto reject = [&](std::atomic<std::uint64_t>& stat, int status,
                          const std::string& message) {
    stat.fetch_add(1);
    send_text(socket, error_response(status, message));
  };

  for (;;) {
    std::size_t head_end = 0;
    while ((head_end = in.find("\r\n\r\n")) == std::string::npos) {
      if (in.size() > config_.max_head_bytes) {
        return reject(stat_bad_requests_, 400, "request head too large");
      }
      if (!receive(/*mid_request=*/!in.empty())) return;
    }
    HttpRequest request;
    if (!parse_head(in.substr(0, head_end + 2), request)) {
      return reject(stat_bad_requests_, 400, "malformed request");
    }
    in.erase(0, head_end + 4);
    std::size_t content_length = 0;
    if (const auto it = request.headers.find("content-length");
        it != request.headers.end()) {
      const auto [ptr, ec] =
          std::from_chars(it->second.data(),
                          it->second.data() + it->second.size(),
                          content_length);
      if (ec != std::errc() || ptr != it->second.data() + it->second.size()) {
        return reject(stat_bad_requests_, 400, "bad content-length");
      }
    }
    if (content_length > config_.max_body_bytes) {
      // We cannot cheaply skip an oversized body, so reject and close.
      return reject(stat_oversized_, 413, "body too large");
    }
    while (in.size() < content_length) {
      if (!receive(/*mid_request=*/true)) return;
    }
    request.body = in.substr(0, content_length);
    in.erase(0, content_length);

    const auto connection = request.headers.find("connection");
    const bool close = connection != request.headers.end() &&
                       lower(connection->second) == "close";
    stat_requests_.fetch_add(1);
    HttpResponse response;
    try {
      response = handler_(request);
    } catch (...) {
      response.status = 500;
      response.body = "{\"error\":\"internal error\"}";
    }
    if (!send_text(socket, serialize_response(response, close)) || close) {
      return;
    }
  }
}

}  // namespace themis::rpc
