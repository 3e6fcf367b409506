#include "p2p/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace themis::p2p {

namespace {

void set_ms_timeout(int fd, int option, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpSocket TcpSocket::connect(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve (numeric-friendly; "localhost" included).
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0 ||
        result == nullptr) {
      return TcpSocket();
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
    ::freeaddrinfo(result);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return TcpSocket();

  // Non-blocking connect so a dead address costs timeout_ms, not minutes.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return TcpSocket();
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return TcpSocket();
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return TcpSocket();
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  return TcpSocket(fd);
}

bool TcpSocket::send_all(ByteSpan data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // hard error, peer gone, or send timeout — drop the peer
  }
  return true;
}

int TcpSocket::recv_some(std::uint8_t* buf, std::size_t buf_len) {
  const ssize_t n = ::recv(fd_, buf, buf_len, 0);
  if (n > 0) return static_cast<int>(n);
  if (n == 0) return 0;
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return -1;
  return -2;
}

void TcpSocket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpSocket::set_timeouts(int send_ms, int recv_ms) {
  if (fd_ < 0) return;
  set_ms_timeout(fd_, SO_SNDTIMEO, send_ms);
  set_ms_timeout(fd_, SO_RCVTIMEO, recv_ms);
}

void TcpSocket::set_nodelay(bool on) {
  if (fd_ < 0) return;
  const int v = on ? 1 : 0;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v));
}

bool TcpListener::listen(std::uint16_t port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  fd_.store(fd);
  return true;
}

std::optional<TcpSocket> TcpListener::accept() {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return std::nullopt;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) return TcpSocket(client);
    if (errno == EINTR) continue;
    return std::nullopt;  // interrupted from another thread, or fatal
  }
}

void TcpListener::interrupt() {
  const int fd = fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

}  // namespace themis::p2p
