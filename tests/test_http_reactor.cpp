// Edge-case coverage for the epoll-reactor HttpServer: partial writes under
// a full socket buffer, client half-close mid-request and mid-keep-alive,
// pipelined requests, hostile request heads/bodies, and a concurrent client
// storm (the TSan target for the reactor/worker/completion handoff).
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
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

/// Echo server: responds with the request body (or a canned body for GET).
class HttpReactorTest : public ::testing::Test {
 protected:
  void start_server(HttpServerConfig config) {
    server_ = std::make_unique<HttpServer>(
        config, [this](const HttpRequest& request) {
          handled_.fetch_add(1);
          HttpResponse response;
          response.body = request.body.empty() ? std::string("{\"ok\":true}")
                                               : request.body;
          return response;
        });
    ASSERT_TRUE(server_->start());
  }

  void TearDown() override {
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
                                  bool keep_alive = true) {
    std::string out = "POST / HTTP/1.1\r\nHost: test\r\nContent-Length: " +
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

  /// Read exactly one response (headers + Content-Length body).
  static std::string read_one_response(p2p::TcpSocket& s, std::string& carry) {
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + 10s;
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

  std::unique_ptr<HttpServer> server_;
  std::atomic<int> handled_{0};
};

// A response far larger than the kernel's combined socket buffering forces
// the reactor through its partial-write path (send_some -1 → EPOLLOUT →
// resume): while the client sits on the bytes the server MUST hit a full
// buffer mid-response, and the whole body must still arrive intact.
// (Deliberately does not shrink SO_RCVBUF post-connect — that triggers TCP
// zero-window persist-timer stalls, a kernel pathology, not a server one.)
TEST_F(HttpReactorTest, PartialWritesSurviveFullSocketBuffer) {
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

TEST_F(HttpReactorTest, HalfCloseMidRequestDropsTheConnection) {
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

TEST_F(HttpReactorTest, HalfCloseAfterCompleteRequestStillGetsItsResponse) {
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
TEST_F(HttpReactorTest, PipelinedKeepAliveRequestsAreAnsweredInOrder) {
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
TEST_F(HttpReactorTest, HostileHeadsAndBodiesGet400And413) {
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

TEST_F(HttpReactorTest, ConnectionCapSheds503) {
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
TEST_F(HttpReactorTest, SlowlorisIsDroppedIdleKeepAliveIsNot) {
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
// workout for reactor <-> worker-pool <-> completion-queue handoffs.
TEST_F(HttpReactorTest, ConcurrentKeepAliveStorm) {
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

}  // namespace
}  // namespace themis::rpc
