#include "net/server.hpp"

#include <sys/socket.h>

#include <array>
#include <exception>
#include <utility>

#include "util/assertx.hpp"

namespace cscv::net {

HttpServer::HttpServer(Router router, ServerOptions options)
    : router_(std::move(router)),
      options_(std::move(options)),
      listener_(ListenSocket::bind_tcp(options_.host, options_.port)),
      pending_(options_.pending_connections) {
  CSCV_CHECK_MSG(options_.num_threads >= 1, "HttpServer needs >= 1 thread");
  threads_.reserve(static_cast<std::size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back(&HttpServer::connection_main, this);
  }
  acceptor_ = std::thread(&HttpServer::accept_main, this);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::accept_main() {
  for (;;) {
    Socket conn = listener_.accept();
    if (!conn.valid()) return;  // listener shut down: stopping
    if (stopping_.load(std::memory_order_relaxed)) return;
    conn.set_recv_timeout(options_.recv_timeout_seconds);
    if (pending_.push(conn) != pipeline::PushResult::kOk) return;  // queue closed
  }
}

void HttpServer::connection_main() {
  Socket conn;
  while (pending_.pop(conn)) {
    serve_connection(std::move(conn));
  }
}

void HttpServer::serve_connection(Socket conn) {
  {
    util::MutexLock lock(active_mu_);
    active_[std::this_thread::get_id()] = conn.fd();
  }
  RequestParser parser(options_.limits);
  std::array<char, 16384> chunk{};
  bool keep_alive = true;
  while (keep_alive && !stopping_.load(std::memory_order_relaxed)) {
    // Drain any pipelined request already buffered before asking the
    // socket for more.
    ParseStatus status = parser.poll();
    while (status == ParseStatus::kNeedMore) {
      const std::ptrdiff_t n = conn.read_some(chunk.data(), chunk.size());
      if (n <= 0) {  // peer closed (0) or idle timeout (-1)
        keep_alive = false;
        break;
      }
      status = parser.feed(std::string_view(chunk.data(), static_cast<std::size_t>(n)));
    }
    if (!keep_alive) break;

    HttpResponse response;
    bool close_after = false;
    if (status == ParseStatus::kBadRequest) {
      response = HttpResponse::error(400, "bad_request", parser.error_detail());
      close_after = true;
    } else if (status == ParseStatus::kTooLarge) {
      response = HttpResponse::error(413, "payload_too_large", parser.error_detail());
      close_after = true;
    } else {
      HttpRequest request = parser.take_request();
      if (const std::string* c = request.header("connection");
          c != nullptr && (*c == "close" || *c == "Close")) {
        close_after = true;
      }
      try {
        response = router_.dispatch(request);
      } catch (const util::CheckError& e) {
        response = HttpResponse::error(400, "bad_request", e.what());
      } catch (const std::exception& e) {
        response = HttpResponse::error(500, "internal_error", e.what());
      }
    }
    response.headers.emplace_back("Connection", close_after ? "close" : "keep-alive");
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (!conn.write_all(serialize(response))) break;
    if (close_after) break;
  }
  {
    util::MutexLock lock(active_mu_);
    active_.erase(std::this_thread::get_id());
  }
}

void HttpServer::stop() {
  util::MutexLock guard(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  listener_.shutdown();
  pending_.close();
  // Wake threads parked in recv() on a live connection. Queued-but-unserved
  // sockets are dropped when the queue drains below.
  {
    util::MutexLock lock(active_mu_);
    for (const auto& [tid, fd] : active_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  for (Socket& s : pending_.drain()) s.close();
}

}  // namespace cscv::net
