// The four benchmark workloads and the output check they share.
//
//   warm_serve     closed loop, 2 HTTP clients, one resident 128²×240
//                  geometry, SIRT/CGLS alternating (10 iterations)
//   cold_serve     closed loop, 1 HTTP client, a fresh geometry per step,
//                  SIRT (2 iterations) + OS-SART (1 epoch) + FBP per step
//   burst_batched  open loop in process, seeded jittered bursts of 4 SIRT
//                  jobs (6 iterations) on one warm geometry, max_batch = 4
//   sharded_sirt   closed loop, 1 client, RemoteBackend over two in-process
//                  ShardWorkers, SIRT (10 iterations)
//
// Why each exists is in perfbench/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ct/geometry.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service_api.hpp"
#include "pipeline/job.hpp"
#include "util/aligned_vector.hpp"

namespace perfbench {

/// A returned volume must be within this relative L2 error of the serial
/// in-process execute_job() run of the same job, or the job counts failed.
inline constexpr double kRelTolerance = 1e-4;

/// What one job experienced, as seen by the benchmark client.
struct JobOutcome {
  std::shared_ptr<const cscv::pipeline::ReconJob> job;
  double latency_s = 0.0;  // closed loop: from send; open loop: from due time
  double done_s = 0.0;     // now_s() when the job completed
  bool returned = false;   // the system answered kOk with a volume
  std::string error;
  cscv::util::AlignedVector<float> volume;

  // Filled by check_outputs().
  bool matches = false;  // returned and within kRelTolerance of the reference
  bool bitwise = false;  // memcmp-equal to the reference
  double rel_err = 0.0;
  double rmse = -1.0;  // against the rasterized phantom (< 0: not computed)

  // Service telemetry, where the path reports it (< 0: not reported).
  double queue_wait_s = -1.0;
  double solve_s = -1.0;
  int batch_size = 0;
  bool cache_hit = false;

  // Client-side layer timings (< 0: not on this path).
  double submit_s = -1.0;
  double fetch_s = -1.0;
  int requests = 0;
  std::size_t request_bytes = 0;
  double lag_s = 0.0;  // how late the generator sent it
};

struct LoopResult {
  std::vector<JobOutcome> jobs;
  double start_s = 0.0;  // now_s() when the timed phase began
  double wall_s = 0.0;   // first send (or due time) to last completion
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Threads that compute at once: workers x OMP threads plus load threads.
  [[nodiscard]] virtual int compute_threads() const = 0;
  /// Fixed latency limit for within_limit_frac.
  [[nodiscard]] virtual double latency_limit_s() const = 0;
  /// The geometry the layer probes of the traced run use.
  [[nodiscard]] virtual cscv::ct::ParallelGeometry primary_geometry() const = 0;
  /// Does the workload's own path go through HttpClient / ReconService?
  [[nodiscard]] virtual bool uses_http() const = 0;
  [[nodiscard]] virtual bool uses_service() const = 0;
  /// Jobs the service may fuse into one solve (1 where nothing fuses).
  [[nodiscard]] virtual int max_batch() const = 0;

  /// Starts the system under test and returns once the workload's
  /// matrices, plans and shards are resident and one warm-up job has
  /// finished. Returns the seconds that took.
  virtual double setup() = 0;
  /// Runs the workload's loop for `seconds` against the set-up system.
  virtual LoopResult run(double seconds) = 0;
  /// Stops everything setup() started and waits for it.
  virtual void teardown() = 0;

  /// Replays a few of the workload's jobs serially through the layer calls,
  /// against the set-up system where the path needs it; returns seconds per
  /// replayed job. Spans land in the active tracer, if any.
  virtual std::vector<double> replay() = 0;
};

/// `smoke` shrinks every geometry so a run takes about a second (the
/// benchmark's own tests); nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke = false);

/// Fills the check fields of every job against serial references computed
/// in process (up to `threads` at once, one OMP thread each).
void check_outputs(std::vector<JobOutcome>& jobs, int threads);

// ---- pieces the traced run's probes share with the workloads -------------

/// A job with default CSCV tuning on `sinogram`.
std::shared_ptr<const cscv::pipeline::ReconJob> make_job(
    const cscv::ct::ParallelGeometry& g, cscv::pipeline::Algorithm algorithm, int iterations,
    cscv::util::AlignedVector<float> sinogram);

/// A ServiceFrontEnd behind an HttpServer on an ephemeral loopback port.
struct HttpStack {
  explicit HttpStack(const cscv::net::FrontEndOptions& options);
  std::unique_ptr<cscv::net::ServiceFrontEnd> front;
  std::unique_ptr<cscv::net::HttpServer> server;  // declared last: stops first
};

/// A job plus its wire-format body, encoded once before any timing.
struct HttpJob {
  std::shared_ptr<const cscv::pipeline::ReconJob> job;
  std::string body;
};
HttpJob encode(std::shared_ptr<const cscv::pipeline::ReconJob> job);

/// POSTs every job over `client`, then polls until each is done and fetches
/// its volume. A job's latency runs from its POST until its volume bytes
/// are received.
std::vector<JobOutcome> http_round(cscv::net::HttpClient& client,
                                   const std::vector<const HttpJob*>& jobs);

/// ShardWorkers serving on ephemeral loopback ports, each on its own
/// thread pinned to one OMP thread; stopped and joined on destruction.
class LoopbackShardWorkers {
 public:
  explicit LoopbackShardWorkers(int count);
  ~LoopbackShardWorkers();
  LoopbackShardWorkers(const LoopbackShardWorkers&) = delete;
  LoopbackShardWorkers& operator=(const LoopbackShardWorkers&) = delete;

  [[nodiscard]] const std::vector<cscv::dist::Endpoint>& endpoints() const { return endpoints_; }

  /// Waits for every worker to leave run(), which each does on its own once
  /// a kShutdown frame reached it (RemoteBackend::shutdown_workers). The
  /// destructor instead stops workers that are still serving.
  void join();

 private:
  void stop();

  std::vector<std::unique_ptr<cscv::dist::ShardWorker>> workers_;
  std::vector<cscv::dist::Endpoint> endpoints_;
  std::vector<std::thread> threads_;  // serve workers_
};

/// Runs task(i) for i in [0, n) on up to `threads` threads, each pinned to
/// one OMP thread; rethrows the first exception after joining.
void parallel_tasks(int n, int threads, const std::function<void(int)>& task);

}  // namespace perfbench
