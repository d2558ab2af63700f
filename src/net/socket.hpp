// Thin RAII wrappers over POSIX TCP sockets — the only OS surface of
// src/net. Loopback-oriented: the service binds 127.0.0.1 by default and
// nothing here speaks TLS; production deployments put a real terminator in
// front (docs/SERVICE.md). Errors throw util::CheckError with errno text;
// timeouts throw the TimeoutError subclass so callers can tell "peer is
// slow/dead" apart from "peer sent garbage".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/assertx.hpp"

namespace cscv::net {

/// The peer exists but did not answer in time: connect() that never
/// completes, or a response that stops arriving mid-read. Subclasses
/// CheckError so generic error paths still work, while timeout-aware
/// callers (shard coordinator failover, CLI exit codes) can catch it
/// specifically.
class TimeoutError : public util::CheckError {
 public:
  explicit TimeoutError(const std::string& what) : CheckError(what) {}
};

/// A connected stream socket (one side of a TCP connection). Move-only;
/// closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Reads up to `size` bytes. Returns 0 on orderly peer close, -1 on a
  /// receive timeout (SO_RCVTIMEO); throws CheckError on hard errors.
  std::ptrdiff_t read_some(char* data, std::size_t size);

  /// Writes the whole buffer (looping over partial sends). False when the
  /// peer went away (EPIPE/ECONNRESET); throws CheckError on other errors.
  bool write_all(std::string_view data);

  /// Bounds every read_some with a timeout; 0 blocks forever.
  void set_recv_timeout(double seconds);

  /// Half-closes both directions — unblocks a thread parked in read_some.
  void shutdown_both() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// TCP connect to host:port bounded by `timeout_seconds` (0 = block
/// forever): TimeoutError when the peer does not complete the handshake in
/// time, CheckError on refusal or other failure. The returned socket has
/// send/recv timeouts set to the same bound. `host` is a numeric IPv4
/// address ("127.0.0.1") or "localhost".
[[nodiscard]] Socket connect_tcp(const std::string& host, std::uint16_t port,
                                 double timeout_seconds = 30.0);

/// A listening socket. bind_tcp with port 0 picks an ephemeral port,
/// reported by port() — how tests and the e2e CI job avoid collisions.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { close(); }

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;

  static ListenSocket bind_tcp(const std::string& host, std::uint16_t port,
                               int backlog = 64);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. An invalid Socket means the listener
  /// was shut down (the accept loop's exit signal), not an error.
  [[nodiscard]] Socket accept();

  /// Wakes a thread blocked in accept() and makes every later accept()
  /// return an invalid Socket. Safe to call while another thread accepts:
  /// the fd stays open (and its number unreused) until close(), which the
  /// owner calls only after joining the accepting thread.
  void shutdown() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace cscv::net
