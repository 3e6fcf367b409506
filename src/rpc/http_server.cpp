#include "rpc/http_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <utility>

namespace themis::rpc {

namespace {

constexpr std::size_t kRecvChunk = 4096;
/// Stall-sweep cadence; granularity of the slowloris guard.
constexpr int kSweepIntervalMs = 100;

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

}  // namespace

HttpServer::HttpServer(HttpServerConfig config, Handler handler)
    : config_(config), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (started_) return true;
  if (!listener_.listen(config_.port)) return false;
  listener_.set_nonblocking(true);

  epoll_fd_ = ::epoll_create1(0);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    epoll_fd_ = event_fd_ = -1;
    listener_.close();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.u64 = 1;  // completion wakeup
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  pool_ = std::make_unique<TaskPool>(kHttpWorkers);
  stopping_.store(false);
  reactor_thread_ = std::thread([this] { reactor_loop(); });
  started_ = true;
  return true;
}

void HttpServer::stop() {
  if (!started_) return;
  stopping_.store(true);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(event_fd_, &one, sizeof(one));
  if (reactor_thread_.joinable()) reactor_thread_.join();
  // Workers may still be finishing handlers; they only touch the completion
  // queue and the eventfd, both still alive.  Join them before closing fds.
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.clear();
  }
  conns_.clear();  // closes every connection socket
  ::close(event_fd_);
  ::close(epoll_fd_);
  event_fd_ = epoll_fd_ = -1;
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

std::int64_t HttpServer::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void HttpServer::update_epoll(Conn& conn, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.socket.fd(), &ev);
}

void HttpServer::drop(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->socket.fd(), nullptr);
  conns_.erase(it);  // closes the socket
}

void HttpServer::reactor_loop() {
  std::int64_t last_sweep = now_ms();
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), kSweepIntervalMs);
    if (stopping_.load()) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      if (key == 0) {
        accept_ready();
        continue;
      }
      if (key == 1) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto r =
            ::read(event_fd_, &drain, sizeof(drain));
        apply_completions();
        continue;
      }
      const auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // dropped earlier this wakeup
      Conn& conn = *it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        alive = false;
      }
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = conn_readable(conn);
      }
      if (alive && (events[i].events & EPOLLOUT) != 0 &&
          conn.state == ConnState::writing) {
        alive = flush(conn);
      }
      if (!alive) drop(key);
    }
    const std::int64_t now = now_ms();
    if (now - last_sweep >= kSweepIntervalMs) {
      last_sweep = now;
      sweep_stalled();
    }
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    auto socket = listener_.accept_nonblocking();
    if (!socket.has_value()) return;
    stat_connections_.fetch_add(1);
    socket->set_nodelay(true);

    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->socket = std::move(*socket);
    conn->last_activity_ms = now_ms();

    epoll_event ev{};
    ev.data.u64 = conn->id;
    if (conns_.size() >= config_.max_connections) {
      // Load shed: queue one 503, flush it, close.
      stat_busy_.fetch_add(1);
      conn->out = error_response(503, "too many connections");
      conn->close_after_write = true;
      conn->state = ConnState::writing;
      ev.events = EPOLLOUT;
    } else {
      ev.events = EPOLLIN;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->socket.fd(), &ev);
    const std::uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    if (conns_[id]->state == ConnState::writing && !flush(*conns_[id])) {
      drop(id);
    }
  }
}

bool HttpServer::conn_readable(Conn& conn) {
  std::uint8_t chunk[kRecvChunk];
  for (;;) {
    const int n = conn.socket.recv_some(chunk, sizeof chunk);
    if (n > 0) {
      conn.in.append(reinterpret_cast<const char*>(chunk),
                     static_cast<std::size_t>(n));
      conn.last_activity_ms = now_ms();
      continue;
    }
    if (n == -1) break;  // drained
    if (n == 0) {
      // Peer finished sending.  A complete buffered request still gets its
      // response (flushed below) — anything less is an abandoned request.
      conn.peer_half_closed = true;
      break;
    }
    return false;  // hard error
  }
  if (conn.state != ConnState::reading) {
    // Bytes for a future pipelined request arrived while a request is in
    // flight; keep them buffered.  (EPOLLIN is off in dispatched state, but
    // a read may still race the transition within one wakeup.)
    return !conn.peer_half_closed || conn.state != ConnState::reading;
  }
  if (!advance(conn)) return false;
  // EOF with no dispatched/queued response left means the peer abandoned a
  // partial request (or was simply done): drop.
  if (conn.peer_half_closed && conn.state == ConnState::reading) return false;
  return true;
}

bool HttpServer::advance(Conn& conn) {
  while (conn.state == ConnState::reading) {
    if (!conn.reading_body) {
      const std::size_t head_end = conn.in.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        if (conn.in.size() > config_.max_head_bytes) {
          stat_bad_requests_.fetch_add(1);
          start_write(conn, error_response(400, "request head too large"),
                      /*close=*/true);
          return flush(conn);
        }
        return true;  // need more bytes
      }
      conn.request = HttpRequest{};
      if (!parse_head(conn.in.substr(0, head_end + 2), conn.request)) {
        stat_bad_requests_.fetch_add(1);
        start_write(conn, error_response(400, "malformed request"),
                    /*close=*/true);
        return flush(conn);
      }
      conn.in.erase(0, head_end + 4);
      conn.content_length = 0;
      if (const auto it = conn.request.headers.find("content-length");
          it != conn.request.headers.end()) {
        const auto [ptr, ec] =
            std::from_chars(it->second.data(),
                            it->second.data() + it->second.size(),
                            conn.content_length);
        if (ec != std::errc() ||
            ptr != it->second.data() + it->second.size()) {
          stat_bad_requests_.fetch_add(1);
          start_write(conn, error_response(400, "bad content-length"),
                      /*close=*/true);
          return flush(conn);
        }
      }
      if (conn.content_length > config_.max_body_bytes) {
        // We cannot cheaply skip an oversized body, so reject and close.
        stat_oversized_.fetch_add(1);
        start_write(conn, error_response(413, "body too large"),
                    /*close=*/true);
        return flush(conn);
      }
      conn.reading_body = true;
    }

    if (conn.in.size() < conn.content_length) return true;  // need more bytes

    conn.request.body = conn.in.substr(0, conn.content_length);
    conn.in.erase(0, conn.content_length);
    conn.reading_body = false;

    const bool client_close = [&] {
      const auto it = conn.request.headers.find("connection");
      return it != conn.request.headers.end() && lower(it->second) == "close";
    }();

    // Dispatch: the reactor stops reading this connection (one request in
    // flight per connection; pipelined successors wait in `in`) and a worker
    // runs the handler, which may block.
    stat_requests_.fetch_add(1);
    conn.state = ConnState::dispatched;
    update_epoll(conn, /*want_read=*/false, /*want_write=*/false);
    const std::uint64_t conn_id = conn.id;
    const bool close = client_close || conn.peer_half_closed;
    HttpRequest request = std::move(conn.request);
    conn.request = HttpRequest{};
    pool_->submit([this, conn_id, request = std::move(request), close] {
      HttpResponse response;
      try {
        response = handler_(request);
      } catch (...) {
        response.status = 500;
        response.body = "{\"error\":\"internal error\"}";
      }
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        completions_.push_back(
            Completion{conn_id, serialize_response(response, close), close});
      }
      const std::uint64_t one = 1;
      [[maybe_unused]] const auto n = ::write(event_fd_, &one, sizeof(one));
    });
    return true;
  }
  return true;
}

void HttpServer::start_write(Conn& conn, std::string bytes, bool close) {
  conn.out = std::move(bytes);
  conn.out_off = 0;
  conn.close_after_write = close;
  conn.state = ConnState::writing;
  conn.last_activity_ms = now_ms();
}

bool HttpServer::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const int n = conn.socket.send_some(
        ByteSpan(reinterpret_cast<const std::uint8_t*>(conn.out.data()) +
                     conn.out_off,
                 conn.out.size() - conn.out_off));
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.last_activity_ms = now_ms();
      continue;
    }
    if (n == -1) {
      // Socket buffer full: wait for EPOLLOUT.
      update_epoll(conn, /*want_read=*/false, /*want_write=*/true);
      return true;
    }
    return false;  // peer gone
  }
  // Response fully flushed.
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_write || conn.peer_half_closed) return false;
  conn.state = ConnState::reading;
  conn.last_activity_ms = now_ms();
  update_epoll(conn, /*want_read=*/true, /*want_write=*/false);
  // Pipelined keep-alive: the next request may already be buffered.
  return advance(conn);
}

void HttpServer::apply_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died while handling
    Conn& conn = *it->second;
    if (conn.state != ConnState::dispatched) continue;
    start_write(conn, std::move(done.bytes), done.close);
    if (!flush(conn)) drop(done.conn_id);
  }
}

void HttpServer::sweep_stalled() {
  const std::int64_t now = now_ms();
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, conn] : conns_) {
    // Idle keep-alive (nothing buffered, nothing in flight) may park
    // forever; a connection mid-request or mid-response that has made no
    // progress for a full timeout is a slowloris candidate.
    const bool mid_request =
        conn->state == ConnState::reading &&
        (conn->reading_body || !conn->in.empty());
    const bool mid_response = conn->state == ConnState::writing;
    if ((mid_request || mid_response) &&
        now - conn->last_activity_ms >= config_.recv_timeout_ms) {
      doomed.push_back(id);
    }
  }
  for (const std::uint64_t id : doomed) drop(id);
}

}  // namespace themis::rpc
