// Edge-case coverage for the thread-per-connection HttpServer: writes
// blocked on a full socket buffer, client half-close mid-request and
// mid-keep-alive, pipelined requests, hostile request heads/bodies, the
// connection cap, the stall timeout, a concurrent client storm (the TSan
// target for the accept and connection threads), handlers that block only
// their own connection, and a stop() that waits for in-flight handlers.
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "p2p/socket.h"
#include "rpc/http_client.h"
#include "rpc/http_server.h"

namespace themis::rpc {
namespace {

using namespace std::chrono_literals;

ByteSpan as_bytes(const std::string& s) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// A gate that handlers wait at until the test opens it.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Echo server: responds with the request body (or a canned body for GET).
/// A request for /wait first blocks its handler at `gate_`.
class HttpServerTest : public ::testing::Test {
 protected:
  void start_server(HttpServerConfig config) {
    server_ = std::make_unique<HttpServer>(
        config, [this](const HttpRequest& request) {
          if (request.target == "/wait") {
            waiting_.fetch_add(1);
            gate_.wait();
            released_.fetch_add(1);
          }
          handled_.fetch_add(1);
          HttpResponse response;
          response.body = request.body.empty() ? std::string("{\"ok\":true}")
                                               : request.body;
          return response;
        });
    ASSERT_TRUE(server_->start());
  }

  void TearDown() override {
    gate_.open();  // never leave a handler parked, even on a failed test
    if (server_) server_->stop();
  }

  p2p::TcpSocket connect_raw() {
    p2p::TcpSocket s =
        p2p::TcpSocket::connect("127.0.0.1", server_->port(), 2000);
    EXPECT_TRUE(s.valid());
    s.set_timeouts(2000, 2000);
    return s;
  }

  static std::string post_request(const std::string& body,
                                  bool keep_alive = true,
                                  const std::string& target = "/") {
    std::string out = "POST " + target +
                      " HTTP/1.1\r\nHost: test\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n";
    if (!keep_alive) out += "Connection: close\r\n";
    out += "\r\n";
    out += body;
    return out;
  }

  /// Read until the connection closes or `deadline` passes.
  static std::string read_until_closed(p2p::TcpSocket& s) {
    std::string reply;
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      const int n = s.recv_some(buf, sizeof(buf));
      if (n > 0) {
        reply.append(reinterpret_cast<const char*>(buf),
                     static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || n == -2) break;  // closed / hard error
    }
    return reply;
  }

  /// Read exactly one response (headers + Content-Length body); empty if
  /// none arrives `within` the deadline.
  static std::string read_one_response(
      p2p::TcpSocket& s, std::string& carry,
      std::chrono::milliseconds within = 10s) {
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + within;
    while (std::chrono::steady_clock::now() < deadline) {
      const std::size_t head_end = carry.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = carry.substr(0, head_end);
        std::size_t body_len = 0;
        const std::size_t cl = head.find("Content-Length: ");
        if (cl != std::string::npos) {
          body_len = static_cast<std::size_t>(
              std::stoul(head.substr(cl + std::strlen("Content-Length: "))));
        }
        if (carry.size() >= head_end + 4 + body_len) {
          std::string response = carry.substr(0, head_end + 4 + body_len);
          carry.erase(0, head_end + 4 + body_len);
          return response;
        }
      }
      const int n = s.recv_some(buf, sizeof(buf));
      if (n > 0) {
        carry.append(reinterpret_cast<const char*>(buf),
                     static_cast<std::size_t>(n));
      } else if (n == 0 || n == -2) {
        break;
      }
    }
    return {};
  }

  /// Poll `done` every 10 ms for up to 10 s.
  static bool wait_until(const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return done();
  }

  std::unique_ptr<HttpServer> server_;
  std::atomic<int> handled_{0};
  std::atomic<int> waiting_{0};   ///< /wait handlers that reached the gate
  std::atomic<int> released_{0};  ///< /wait handlers past the gate
  Gate gate_;
};

// A response far larger than the kernel's combined socket buffering blocks
// the connection thread in send mid-response: while the client sits on the
// bytes the server MUST hit a full buffer, and the whole body must still
// arrive intact once the client reads.
// (Deliberately does not shrink SO_RCVBUF post-connect — that triggers TCP
// zero-window persist-timer stalls, a kernel pathology, not a server one.)
TEST_F(HttpServerTest, PartialWritesSurviveFullSocketBuffer) {
  HttpServerConfig config;
  config.max_body_bytes = 32 << 20;
  start_server(config);

  const std::string big(24 << 20, 'q');  // 24 MiB round trip
  p2p::TcpSocket s = connect_raw();
  ASSERT_TRUE(s.send_all(as_bytes(post_request(big, /*keep_alive=*/false))));

  std::this_thread::sleep_for(200ms);  // let the server hit a full buffer
  const std::string reply = read_until_closed(s);
  ASSERT_TRUE(reply.starts_with("HTTP/1.1 200")) << reply.substr(0, 64);
  const std::size_t body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(reply.substr(body_at + 4), big);
}

TEST_F(HttpServerTest, HalfCloseMidRequestDropsTheConnection) {
  start_server(HttpServerConfig{});

  // Half-close with only a partial head on the wire: there is nothing the
  // server can answer, so the connection should just go away.
  p2p::TcpSocket s = connect_raw();
  const std::string partial = "POST / HTTP/1.1\r\nContent-Le";
  ASSERT_TRUE(s.send_all(as_bytes(partial)));
  ::shutdown(s.fd(), SHUT_WR);
  EXPECT_EQ(read_until_closed(s), "");

  // Same with a complete head but a truncated body.
  p2p::TcpSocket t = connect_raw();
  const std::string truncated =
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-part";
  ASSERT_TRUE(t.send_all(as_bytes(truncated)));
  ::shutdown(t.fd(), SHUT_WR);
  EXPECT_EQ(read_until_closed(t), "");
  EXPECT_EQ(handled_.load(), 0);
}

TEST_F(HttpServerTest, HalfCloseAfterCompleteRequestStillGetsItsResponse) {
  start_server(HttpServerConfig{});

  p2p::TcpSocket s = connect_raw();
  ASSERT_TRUE(s.send_all(as_bytes(post_request("{\"n\":1}"))));
  ::shutdown(s.fd(), SHUT_WR);  // FIN after a complete request
  const std::string reply = read_until_closed(s);
  EXPECT_TRUE(reply.starts_with("HTTP/1.1 200")) << reply.substr(0, 64);
  EXPECT_NE(reply.find("{\"n\":1}"), std::string::npos);
  EXPECT_EQ(handled_.load(), 1);
}

// Two requests in a single write: the server must answer both, in order, on
// the same connection (the second waits buffered while the first is in
// flight).
TEST_F(HttpServerTest, PipelinedKeepAliveRequestsAreAnsweredInOrder) {
  start_server(HttpServerConfig{});

  p2p::TcpSocket s = connect_raw();
  const std::string wire = post_request("{\"seq\":1}") +
                           post_request("{\"seq\":2}") +
                           post_request("{\"seq\":3}");
  ASSERT_TRUE(s.send_all(as_bytes(wire)));

  std::string carry;
  for (int seq = 1; seq <= 3; ++seq) {
    const std::string response = read_one_response(s, carry);
    ASSERT_TRUE(response.starts_with("HTTP/1.1 200")) << "seq " << seq;
    EXPECT_NE(response.find("{\"seq\":" + std::to_string(seq) + "}"),
              std::string::npos)
        << response;
  }
  EXPECT_EQ(handled_.load(), 3);
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
  EXPECT_EQ(server_->stats().requests, 3u);
}

// The hostile-input cases test_rpc exercises through the gateway, replayed
// against the raw server: each must produce the right status and close.
TEST_F(HttpServerTest, HostileHeadsAndBodiesGet400And413) {
  HttpServerConfig config;
  config.max_head_bytes = 1024;
  config.max_body_bytes = 2048;
  start_server(config);

  struct Case {
    std::string wire;
    std::string expect_status;
  };
  const Case cases[] = {
      {"???\r\n\r\n", "HTTP/1.1 400"},
      {"GET\r\n\r\n", "HTTP/1.1 400"},
      {"GET / HTTP/9.9\r\n\r\n", "HTTP/1.1 400"},
      {"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", "HTTP/1.1 400"},
      {"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "HTTP/1.1 400"},
      {"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", "HTTP/1.1 413"},
      // Head larger than max_head_bytes, no terminator in sight.
      {"GET / HTTP/1.1\r\nX-Pad: " + std::string(2000, 'a'),
       "HTTP/1.1 400"},
  };
  for (const Case& c : cases) {
    p2p::TcpSocket s = connect_raw();
    ASSERT_TRUE(s.send_all(as_bytes(c.wire)));
    const std::string reply = read_until_closed(s);
    EXPECT_TRUE(reply.starts_with(c.expect_status))
        << "wire " << c.wire.substr(0, 40) << " got " << reply.substr(0, 40);
  }
  EXPECT_EQ(handled_.load(), 0);
  EXPECT_GE(server_->stats().bad_requests, 6u);
  EXPECT_GE(server_->stats().oversized_bodies, 1u);
}

TEST_F(HttpServerTest, ConnectionCapSheds503) {
  HttpServerConfig config;
  config.max_connections = 2;
  start_server(config);

  // Fill the cap with two idle keep-alive connections.
  p2p::TcpSocket a = connect_raw();
  p2p::TcpSocket b = connect_raw();
  ASSERT_TRUE(a.send_all(as_bytes(post_request("{}"))));
  std::string carry_a;
  ASSERT_FALSE(read_one_response(a, carry_a).empty());

  p2p::TcpSocket c = connect_raw();
  const std::string reply = read_until_closed(c);
  EXPECT_TRUE(reply.starts_with("HTTP/1.1 503")) << reply.substr(0, 64);
  EXPECT_GE(server_->stats().rejected_busy, 1u);
}

// A connection that trickles its request slower than recv_timeout_ms must be
// swept; an idle keep-alive connection must NOT be.
TEST_F(HttpServerTest, SlowlorisIsDroppedIdleKeepAliveIsNot) {
  HttpServerConfig config;
  config.recv_timeout_ms = 300;
  start_server(config);

  // Idle keep-alive: complete one request, then sit silent past the budget.
  p2p::TcpSocket idle = connect_raw();
  ASSERT_TRUE(idle.send_all(as_bytes(post_request("{}"))));
  std::string carry;
  ASSERT_FALSE(read_one_response(idle, carry).empty());

  // Slowloris: half a request head, then stall.
  p2p::TcpSocket slow = connect_raw();
  ASSERT_TRUE(slow.send_all(as_bytes(std::string("POST / HT"))));

  std::this_thread::sleep_for(700ms);

  // The stalled connection is gone...
  std::uint8_t buf[64];
  EXPECT_EQ(slow.recv_some(buf, sizeof(buf)), 0);
  // ...while the idle keep-alive one still answers.
  ASSERT_TRUE(idle.send_all(as_bytes(post_request("{\"again\":true}"))));
  const std::string second = read_one_response(idle, carry);
  EXPECT_TRUE(second.starts_with("HTTP/1.1 200")) << second.substr(0, 64);
}

// Many clients hammering keep-alive connections concurrently: the TSan
// workout for the accept thread and the connection threads.
TEST_F(HttpServerTest, ConcurrentKeepAliveStorm) {
  start_server(HttpServerConfig{});

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kRequests; ++i) {
        const std::string body =
            "{\"client\":" + std::to_string(c) +
            ",\"i\":" + std::to_string(i) + "}";
        const auto result = client.post("/", body);
        if (result && result->status == 200 && result->body == body) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(server_->stats().requests,
            static_cast<std::uint64_t>(kClients * kRequests));
}

// Eight connections whose handlers all block: a ninth connection is still
// answered, because a handler parks only its own connection's thread.
TEST_F(HttpServerTest, BlockedHandlersDoNotDelayOtherConnections) {
  start_server(HttpServerConfig{});

  constexpr int kBlocked = 8;
  std::vector<p2p::TcpSocket> blocked;
  for (int i = 0; i < kBlocked; ++i) {
    blocked.push_back(connect_raw());
    ASSERT_TRUE(blocked.back().send_all(
        as_bytes(post_request("{}", /*keep_alive=*/true, "/wait"))));
  }
  ASSERT_TRUE(wait_until([this] { return waiting_.load() == kBlocked; }));

  p2p::TcpSocket ninth = connect_raw();
  ASSERT_TRUE(ninth.send_all(as_bytes(post_request("{\"ninth\":true}"))));
  std::string carry;
  const std::string reply = read_one_response(ninth, carry, 2s);
  EXPECT_TRUE(reply.starts_with("HTTP/1.1 200")) << reply.substr(0, 64);
  EXPECT_NE(reply.find("{\"ninth\":true}"), std::string::npos);
  EXPECT_EQ(released_.load(), 0);  // answered while all eight still block

  gate_.open();
  for (p2p::TcpSocket& s : blocked) {
    std::string blocked_carry;
    const std::string response = read_one_response(s, blocked_carry);
    EXPECT_TRUE(response.starts_with("HTTP/1.1 200"));
  }
}

// Graceful shutdown: stop() returns only after an in-flight handler does.
TEST_F(HttpServerTest, StopWaitsForInFlightHandler) {
  start_server(HttpServerConfig{});

  p2p::TcpSocket s = connect_raw();
  ASSERT_TRUE(
      s.send_all(as_bytes(post_request("{}", /*keep_alive=*/true, "/wait"))));
  ASSERT_TRUE(wait_until([this] { return waiting_.load() == 1; }));

  std::atomic<bool> stopped{false};
  int released_at_stop = -1;
  std::thread stopper([&] {
    server_->stop();
    released_at_stop = released_.load();
    stopped.store(true);
  });
  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(stopped.load());  // the handler is still parked
  gate_.open();
  stopper.join();
  EXPECT_EQ(released_at_stop, 1);
}

}  // namespace
}  // namespace themis::rpc
