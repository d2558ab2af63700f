// net timeout behavior: a peer that accepts the TCP connection but never
// answers must surface as a structured net::TimeoutError within the
// configured budget — not block the client forever.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"

namespace cscv::net {
namespace {

/// Accepts connections and then sits on them without reading or writing.
class SilentServer {
 public:
  SilentServer() : listener_(ListenSocket::bind_tcp("127.0.0.1", 0)) {
    thread_ = std::thread([this] {
      while (!stopping_.load()) {
        Socket conn = listener_.accept();
        if (!conn.valid()) return;  // listener shut down
        held_.push_back(std::move(conn));
      }
    });
  }
  ~SilentServer() {
    stopping_.store(true);
    listener_.shutdown();  // wake accept(); the fd closes after the join
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

 private:
  ListenSocket listener_;
  std::atomic<bool> stopping_{false};
  std::vector<Socket> held_;  // keep peers open so reads block, not EOF
  std::thread thread_;
};

TEST(ClientTimeout, SilentPeerThrowsTimeoutError) {
  SilentServer server;
  HttpClient client("127.0.0.1", server.port(), ClientOptions{.timeout_seconds = 0.5});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.get("/"), TimeoutError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Must give up near the budget — allow slack for slow CI, but nowhere
  // near the old block-forever behavior.
  EXPECT_LT(waited, 10.0);
}

TEST(ClientTimeout, TimeoutErrorIsACheckError) {
  // Callers that only know util::CheckError must still catch timeouts.
  SilentServer server;
  HttpClient client("127.0.0.1", server.port(), ClientOptions{.timeout_seconds = 0.2});
  EXPECT_THROW((void)client.get("/"), util::CheckError);
}

}  // namespace
}  // namespace cscv::net
