#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/assertx.hpp"

namespace cscv::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  CSCV_CHECK_MSG(false, what << ": " << std::strerror(errno));
  __builtin_unreachable();
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  CSCV_CHECK_MSG(inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) == 1,
                 "not a numeric IPv4 address: " << host);
  return addr;
}

timeval to_timeval(double seconds) {
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  }
  return tv;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::ptrdiff_t Socket::read_some(char* data, std::size_t size) {
  CSCV_CHECK(valid());
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;  // recv timeout
    if (errno == ECONNRESET) return 0;  // treat reset as peer-gone
    throw_errno("recv");
  }
}

bool Socket::write_all(std::string_view data) {
  CSCV_CHECK(valid());
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::set_recv_timeout(double seconds) {
  CSCV_CHECK(valid());
  const timeval tv = to_timeval(seconds);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   double timeout_seconds) {
  const sockaddr_in addr = make_addr(host, port);
  const std::string where = host + ":" + std::to_string(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket s(fd);
  s.set_recv_timeout(timeout_seconds);
  const timeval tv = to_timeval(timeout_seconds);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  // Request/response framing benefits from immediate sends.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // SO_SNDTIMEO does not bound connect() on Linux — a SYN into a black
  // hole blocks for the kernel's minutes-long retry schedule. Connect
  // non-blocking and poll with our own deadline instead.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  if (timeout_seconds > 0.0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    int waited;
    do {
      waited = ::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1e3));
    } while (waited < 0 && errno == EINTR);
    if (waited < 0) throw_errno("poll(connect)");
    if (waited == 0) {
      throw TimeoutError("connect to " + where + " timed out after " +
                         std::to_string(timeout_seconds) + " s");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      rc = -1;
    } else {
      rc = 0;
    }
  }
  if (rc != 0) throw_errno("connect to " + where);
  if (timeout_seconds > 0.0 && ::fcntl(fd, F_SETFL, flags) != 0) {
    throw_errno("fcntl(F_SETFL restore)");
  }
  return s;
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

ListenSocket ListenSocket::bind_tcp(const std::string& host, std::uint16_t port,
                                    int backlog) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ListenSocket s;
  s.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }
  s.port_ = ntohs(bound.sin_port);
  return s;
}

Socket ListenSocket::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket s(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return s;
    }
    if (errno == EINTR) continue;
    // EINVAL: the listener was shut down — the exit signal.
    return Socket{};
  }
}

void ListenSocket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::close() noexcept {
  if (fd_ >= 0) {
    shutdown();
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace cscv::net
