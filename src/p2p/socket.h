// Minimal RAII wrappers over blocking POSIX TCP sockets (IPv4).
//
// The p2p layer and the RPC server need exactly four operations — listen,
// accept, connect, shuttle bytes — plus the ability to unblock a thread
// parked in recv() or accept() from another thread (shutdown()).  Every
// socket blocks, bounded by send/receive timeouts; the threading model (one
// thread per connection) lives one layer up, in PeerManager and
// rpc::HttpServer.  No external dependencies, loopback and LAN focused.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace themis::p2p {

/// A connected TCP stream.  Move-only; closes on destruction.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connect to host:port with a bounded connect timeout.  Returns an
  /// invalid socket (valid() == false) on failure.
  static TcpSocket connect(const std::string& host, std::uint16_t port,
                           int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write the whole buffer (retrying short writes).  False on error or
  /// send-timeout; the connection should be dropped.
  bool send_all(ByteSpan data);

  /// Read up to `buf_len` bytes.  >0: bytes read; 0: orderly close;
  /// <0: error or receive-timeout tick (-1 timeout, -2 hard error).
  int recv_some(std::uint8_t* buf, std::size_t buf_len);

  /// Wake any thread blocked in recv_some()/send_all() on this socket; the
  /// call is safe from another thread and idempotent.
  void shutdown();

  void close();

  /// Bound per-call blocking time for send/recv (SO_SNDTIMEO/SO_RCVTIMEO).
  void set_timeouts(int send_ms, int recv_ms);
  void set_nodelay(bool on);

 private:
  int fd_ = -1;
};

/// A listening TCP socket.  Binds 0.0.0.0; port 0 picks an ephemeral port
/// (read it back with port()).
///
/// Thread contract: accept() runs on one thread; interrupt() may be called
/// from any thread to unblock it; close() must only run once no thread is
/// inside accept() (join the accept thread first).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { close(); }

  TcpListener(TcpListener&&) = delete;
  TcpListener& operator=(TcpListener&&) = delete;

  /// False if bind/listen failed.
  bool listen(std::uint16_t port);

  /// Block until a connection arrives.  nullopt after interrupt()/close() or
  /// on a fatal accept error.
  std::optional<TcpSocket> accept();

  std::uint16_t port() const { return port_; }
  bool valid() const { return fd_.load() >= 0; }

  /// Unblock a thread parked in accept() (safe from any thread, idempotent).
  void interrupt();

  /// Close the socket; only after the accept thread has been joined.
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace themis::p2p
