// cscv_shardd — one shard worker of the distributed reconstruction path
// (docs/SHARDING.md).
//
//   cscv_shardd [--host=127.0.0.1] [--port=0] [--port-file=PATH]
//               [--spill=DIR] [--threads=1]
//
// Binds the shard protocol port (port 0 picks an ephemeral port, reported
// on stdout and in --port-file so scripts discover it race-free), then
// serves kBuildShard/kApply frames from one coordinator at a time until
// SIGINT/SIGTERM or a kShutdown frame. --threads defaults to 1 — the
// determinism contract pins shard math to one thread; raising it trades
// the bitwise guarantees for speed.
#include <csignal>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "dist/worker.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace cscv;
  util::CliFlags cli(argc, argv);
  try {
    dist::WorkerOptions opts;
    opts.host = cli.get_string("host", "127.0.0.1");
    opts.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    opts.spill_dir = cli.get_string("spill", "");
    const int threads = cli.get_int("threads", 1);
    const std::string port_file = cli.get_string("port-file", "");
    cli.finish();
    CSCV_CHECK_MSG(threads >= 1, "--threads must be >= 1, got " << threads);

    dist::ShardWorker worker(opts);

    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    // The line scripts wait for; flushed before any frame is served.
    std::cout << "cscv_shardd listening on " << opts.host << ":" << worker.port()
              << " (threads=" << threads << ")" << std::endl;
    if (!port_file.empty()) {
      std::ofstream out(port_file, std::ios::trunc);
      CSCV_CHECK_MSG(out.good(), "cannot write --port-file " << port_file);
      out << worker.port() << "\n";
    }

    std::atomic<bool> done{false};
    std::thread serving([&worker, &done, threads] {
      // OpenMP thread counts are per-thread settings: pin the thread that
      // runs the shard math, not main, or applies use every core.
      util::set_num_threads(threads);
      worker.run();
      done.store(true, std::memory_order_relaxed);
    });
    // Exits on a signal OR when the worker drained a kShutdown frame.
    while (g_signal.load(std::memory_order_relaxed) == 0 &&
           !done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    const int sig = g_signal.load(std::memory_order_relaxed);
    if (sig != 0) {
      std::cout << "cscv_shardd: caught signal " << sig << ", exiting ("
                << worker.num_shards() << " shard(s) hosted)" << std::endl;
    } else {
      std::cout << "cscv_shardd: shutdown requested by coordinator ("
                << worker.num_shards() << " shard(s) hosted)" << std::endl;
    }
    worker.stop();
    serving.join();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cscv_shardd: error: " << e.what() << "\n";
    return 1;
  }
}
