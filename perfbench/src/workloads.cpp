#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "core/plan.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "dist/worker.hpp"
#include "inputs.hpp"
#include "pipeline/service.hpp"
#include "recon/fbp.hpp"
#include "recon/os_sart.hpp"
#include "sparse/convert.hpp"
#include "timed_operator.hpp"
#include "trace.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace pl = cscv::pipeline;
using cscv::ct::ParallelGeometry;
using cscv::util::AlignedVector;
using JobPtr = std::shared_ptr<const pl::ReconJob>;

namespace {

constexpr int kPool = 4;                // distinct noisy sinograms per geometry
constexpr double kPollSeconds = 0.002;  // HTTP status poll interval

// Burst arrivals: bursts of kBurstSize jobs at seeded, jittered times.
// kBurstRate * kBurstSize = 9 jobs/s is just above what one worker
// completes unbatched (SIRT, 6 iterations, 128²×240, 1 OMP thread: ~8.6
// jobs/s on the reference host) and about 0.6x its capacity with full k=4
// batches (~14.7 jobs/s), so the queue keeps up only by fusing jobs. Bursts
// are 0.36-0.53 s apart, against ~0.27 s per fused k=4 solve: a burst never
// waits for the previous one unless that solve slows by a third.
constexpr double kBurstRate = 2.25;
constexpr int kBurstSize = 4;

ParallelGeometry primary(bool smoke) {
  return smoke ? cscv::ct::standard_geometry(32, 36) : cscv::ct::standard_geometry(128, 240);
}

std::vector<JobPtr> pooled_jobs(const ParallelGeometry& g, std::uint64_t seed,
                                const std::vector<pl::Algorithm>& algorithms, int iterations) {
  std::vector<JobPtr> jobs;
  for (int p = 0; p < kPool; ++p) {
    const auto sino = noisy_sinogram(g, sub_seed(seed, 100 + static_cast<std::uint64_t>(p)));
    for (pl::Algorithm a : algorithms) jobs.push_back(make_job(g, a, iterations, sino));
  }
  return jobs;
}

// Plans by the matrix they were built for. The key owns the matrix: a plan
// must not outlive it, and a cache may evict and free it, after which a new
// matrix can reuse its address.
using PlanMap = std::map<std::shared_ptr<const cscv::core::CscvMatrix<float>>,
                         std::unique_ptr<cscv::core::SpmvPlan<float>>>;

void fill_from_result(JobOutcome& out, pl::ReconResult&& r) {
  out.queue_wait_s = r.queue_wait_seconds;
  out.solve_s = r.solve_seconds;
  out.batch_size = r.batch_size;
  out.cache_hit = r.cache_hit;
  if (r.status == pl::JobStatus::kOk) {
    out.returned = true;
    out.volume = std::move(r.volume);
  } else {
    out.error = std::string(pl::job_status_name(r.status)) + ": " + r.error;
  }
}

cscv::net::FrontEndOptions serve_options(int workers, std::size_t cache_budget) {
  cscv::net::FrontEndOptions o;
  o.service.num_workers = workers;
  o.service.omp_threads_per_worker = 1;
  o.service.max_batch = 1;
  o.service.queue_capacity = 32;
  o.service.admission = pl::AdmissionPolicy::kBlock;
  o.service.cache.budget_bytes = cache_budget;
  return o;
}

// Serial replay of one iterative or FBP job through the layer calls, the
// way a warm worker runs it: acquire from `cache`, reuse or build the plan,
// solve with every operator apply inside a span.
double replay_job(pl::SystemMatrixCache& cache, const pl::ReconJob& job, std::uint64_t id,
                  PlanMap& plans) {
  const double t0 = now_s();
  {
    ScopedSpan span("job", id);
    std::shared_ptr<const pl::SystemMatrixEntry> entry;
    {
      ScopedSpan s("pipeline.get_or_build");
      entry = cache.get_or_build(job.matrix_key()).entry;
    }
    AlignedVector<float> x(static_cast<std::size_t>(job.geometry.num_cols()), 0.0F);
    if (job.algorithm == pl::Algorithm::kOsSart) {
      ScopedSpan s("recon.solve");
      cscv::recon::OsSartOptions o;
      o.iterations = job.solve.iterations;
      o.num_subsets = job.os_sart_subsets;
      (void)cscv::recon::os_sart<float>(*entry->csr, entry->layout, job.sinogram, x, o);
    } else {
      auto& plan = plans[entry->cscv];
      if (!plan) {
        ScopedSpan s("core.plan_build");
        plan = std::make_unique<cscv::core::SpmvPlan<float>>(*entry->cscv,
                                                              cscv::core::PlanOptions{.threads = 1});
      }
      const cscv::recon::PlanOperator<float> op(*plan);
      const TimedOperator timed(op, "core.execute", "core.execute_transpose");
      ScopedSpan s("recon.solve");
      if (job.algorithm == pl::Algorithm::kSirt) {
        (void)cscv::recon::sirt<float>(timed, job.sinogram, x, job.solve);
      } else if (job.algorithm == pl::Algorithm::kCgls) {
        (void)cscv::recon::cgls<float>(timed, job.sinogram, x, job.solve);
      } else {
        x = cscv::recon::fbp<float>(job.geometry, timed, job.sinogram);
      }
    }
  }
  return now_s() - t0;
}

// ---- warm_serve -------------------------------------------------------------

class WarmServe final : public Workload {
 public:
  WarmServe(std::uint64_t seed, bool smoke) : seed_(seed), g_(primary(smoke)) {
    for (auto& j : pooled_jobs(g_, seed, {pl::Algorithm::kSirt, pl::Algorithm::kCgls}, 10)) {
      jobs_.push_back(encode(j));
    }
  }
  const char* name() const override { return "warm_serve"; }
  int compute_threads() const override { return 4; }  // 2 workers + 2 clients
  double latency_limit_s() const override { return 2.0; }
  ParallelGeometry primary_geometry() const override { return g_; }
  bool uses_http() const override { return true; }
  bool uses_service() const override { return true; }
  int max_batch() const override { return 1; }

  double setup() override {
    const double t0 = now_s();
    stack_ = std::make_unique<HttpStack>(serve_options(2, std::size_t{512} << 20));
    cscv::net::HttpClient client("127.0.0.1", stack_->server->port());
    // One SIRT and one CGLS job at once: Algorithm is part of the matrix
    // key, so both entries must be resident before the timed phase.
    for (const JobOutcome& o : http_round(client, {&jobs_[0], &jobs_[1]})) {
      CSCV_CHECK_MSG(o.returned, "warm_serve warm-up job failed: " << o.error);
    }
    return now_s() - t0;
  }

  LoopResult run(double seconds) override {
    constexpr int kClients = 2;
    const std::vector<int> order = pool_sequence(seed_, 1 << 14, kPool);
    std::atomic<int> next{0};
    std::vector<std::vector<JobOutcome>> per_client(kClients);
    std::vector<double> last_done(kClients, 0.0);
    const double start = now_s();
    const double deadline = start + seconds;
    std::vector<std::thread> clients;
    std::exception_ptr error;
    std::mutex error_mu;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          cscv::net::HttpClient client("127.0.0.1", stack_->server->port());
          double prev = now_s();
          while (now_s() < deadline) {
            const int i = next.fetch_add(1);
            // Alternate SIRT and CGLS; the pool entry comes from the seed.
            const HttpJob& hj =
                jobs_[static_cast<std::size_t>(order[static_cast<std::size_t>(i) % order.size()] * 2 +
                                               i % 2)];
            const double sent = now_s();
            JobOutcome o = std::move(http_round(client, {&hj}).front());
            o.lag_s = sent - prev;
            prev = now_s();
            per_client[static_cast<std::size_t>(c)].push_back(std::move(o));
          }
          last_done[static_cast<std::size_t>(c)] = prev;
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (auto& t : clients) t.join();
    if (error) std::rethrow_exception(error);
    LoopResult r;
    r.start_s = start;
    for (auto& v : per_client) {
      for (auto& o : v) r.jobs.push_back(std::move(o));
    }
    r.wall_s = *std::max_element(last_done.begin(), last_done.end()) - start;
    return r;
  }

  void teardown() override { stack_.reset(); }

  std::vector<double> replay() override {
    if (!cache_) {
      // A warm worker's state, built outside any span: both entries
      // resident, one plan per entry.
      cache_ = std::make_unique<pl::SystemMatrixCache>();
      for (int k = 0; k < 2; ++k) {
        const auto entry = cache_->get_or_build(jobs_[static_cast<std::size_t>(k)].job->matrix_key()).entry;
        plans_[entry->cscv] = std::make_unique<cscv::core::SpmvPlan<float>>(
            *entry->cscv, cscv::core::PlanOptions{.threads = 1});
      }
    }
    std::vector<double> out;
    for (int i = 0; i < 4; ++i) {
      out.push_back(replay_job(*cache_, *jobs_[static_cast<std::size_t>(i)].job,
                               ++replay_id_, plans_));
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  ParallelGeometry g_;
  std::vector<HttpJob> jobs_;  // pool entry p: [2p] SIRT, [2p + 1] CGLS
  std::unique_ptr<HttpStack> stack_;
  std::unique_ptr<pl::SystemMatrixCache> cache_;
  PlanMap plans_;
  std::uint64_t replay_id_ = 0;
};

// ---- cold_serve -------------------------------------------------------------

class ColdServe final : public Workload {
 public:
  ColdServe(std::uint64_t seed, bool smoke)
      : seed_(seed), smoke_(smoke), geometries_(cold_geometries(seed, kSteps)) {
    if (smoke_) {
      for (auto& g : geometries_) g = cscv::ct::standard_geometry(g.image_size / 4, g.num_views / 8);
    }
  }
  const char* name() const override { return "cold_serve"; }
  int compute_threads() const override { return 3; }  // 2 workers + 1 client
  double latency_limit_s() const override { return 10.0; }
  // The middle of the size range, so probes compare across seeds.
  ParallelGeometry primary_geometry() const override {
    return cscv::ct::standard_geometry(smoke_ ? 26 : 104, smoke_ ? 22 : 180);
  }
  bool uses_http() const override { return true; }
  bool uses_service() const override { return true; }
  int max_batch() const override { return 1; }

  double setup() override {
    const double t0 = now_s();
    // Geometries never repeat, so nothing is worth keeping resident; the
    // budget only bounds memory.
    stack_ = std::make_unique<HttpStack>(serve_options(2, std::size_t{128} << 20));
    cscv::net::HttpClient client("127.0.0.1", stack_->server->port());
    // Warm-up on a geometry below the workload's size range.
    const auto g = cscv::ct::standard_geometry(smoke_ ? 16 : 64, smoke_ ? 12 : 96);
    const HttpJob warm = encode(make_job(g, pl::Algorithm::kSirt, 2, noisy_sinogram(g, seed_)));
    const JobOutcome o = std::move(http_round(client, {&warm}).front());
    CSCV_CHECK_MSG(o.returned, "cold_serve warm-up job failed: " << o.error);
    return now_s() - t0;
  }

  LoopResult run(double seconds) override {
    cscv::net::HttpClient client("127.0.0.1", stack_->server->port());
    LoopResult r;
    const double start = now_s();
    r.start_s = start;
    double prev = start;
    while (now_s() < start + seconds) {
      CSCV_CHECK_MSG(next_step_ < kSteps, "cold_serve ran out of distinct geometries");
      const std::vector<HttpJob> step = step_jobs(next_step_++);
      const double sent = now_s();
      auto outs = http_round(client, {&step[0], &step[1], &step[2]});
      for (auto& o : outs) {
        o.lag_s = sent - prev;
        r.jobs.push_back(std::move(o));
      }
      prev = now_s();
    }
    r.wall_s = prev - start;
    return r;
  }

  void teardown() override { stack_.reset(); }

  std::vector<double> replay() override {
    // The last two steps of the sequence (never reached by a timed loop)
    // and a fresh cache on every call: each replay pays the same
    // acquisitions, as every timed-phase job does.
    pl::SystemMatrixCache::Options budget;
    budget.budget_bytes = std::size_t{128} << 20;
    pl::SystemMatrixCache cache(budget);
    PlanMap plans;
    std::vector<double> out;
    for (int step = kSteps - 2; step < kSteps; ++step) {
      for (const HttpJob& hj : step_jobs(step)) {
        out.push_back(replay_job(cache, *hj.job, ++replay_id_, plans));
      }
    }
    return out;
  }

 private:
  static constexpr int kSteps = 400;  // far more than a run reaches

  std::vector<HttpJob> step_jobs(int step) const {
    const ParallelGeometry& g = geometries_[static_cast<std::size_t>(step)];
    const auto sino = noisy_sinogram(g, sub_seed(seed_, 200 + static_cast<std::uint64_t>(step)));
    return {encode(make_job(g, pl::Algorithm::kSirt, 2, sino)),
            encode(make_job(g, pl::Algorithm::kOsSart, 1, sino)),
            encode(make_job(g, pl::Algorithm::kFbp, 1, sino))};
  }

  std::uint64_t seed_;
  bool smoke_;
  std::vector<ParallelGeometry> geometries_;
  int next_step_ = 0;
  std::uint64_t replay_id_ = 0;
  std::unique_ptr<HttpStack> stack_;
};

// ---- burst_batched ----------------------------------------------------------

class BurstBatched final : public Workload {
 public:
  BurstBatched(std::uint64_t seed, bool smoke)
      : seed_(seed), smoke_(smoke), g_(primary(smoke)),
        jobs_(pooled_jobs(g_, seed, {pl::Algorithm::kSirt}, 6)) {}
  const char* name() const override { return "burst_batched"; }
  int compute_threads() const override { return 3; }  // worker + generator + collector
  double latency_limit_s() const override { return 1.0; }
  ParallelGeometry primary_geometry() const override { return g_; }
  bool uses_http() const override { return false; }
  bool uses_service() const override { return true; }
  int max_batch() const override { return 4; }

  double setup() override {
    const double t0 = now_s();
    pl::ServiceOptions o;
    o.num_workers = 1;
    o.omp_threads_per_worker = 1;
    o.max_batch = 4;
    // Room for any backlog a run can build: an open loop must not block
    // its generator, and a refusal would be a failed job.
    o.queue_capacity = 4096;
    o.admission = pl::AdmissionPolicy::kReject;
    service_ = std::make_unique<pl::ReconService>(o);
    // Warm-up: one job acquires the matrix, then one burst makes the worker
    // build the k=4 plan every timed burst fuses into.
    for (int width : {1, kBurstSize}) {
      std::vector<std::future<pl::ReconResult>> fs;
      for (int k = 0; k < width; ++k) {
        fs.push_back(service_->submit(*jobs_[static_cast<std::size_t>(k)]).result);
      }
      for (auto& f : fs) {
        CSCV_CHECK_MSG(f.get().status == pl::JobStatus::kOk, "burst_batched warm-up job failed");
      }
    }
    return now_s() - t0;
  }

  LoopResult run(double seconds) override {
    std::vector<double> due;
    for (double t : jittered_arrivals(seed_, smoke_ ? 5.0 : kBurstRate, seconds)) {
      due.insert(due.end(), kBurstSize, t);
    }
    const std::vector<int> order = pool_sequence(seed_, static_cast<int>(due.size()), kPool);
    CSCV_CHECK_MSG(!due.empty(), "burst_batched drew no arrivals");
    std::vector<std::future<pl::ReconResult>> futures(due.size());
    std::vector<JobOutcome> outs(due.size());
    std::mutex mu;
    std::condition_variable cv;
    std::size_t submitted = 0;
    const double start = now_s();
    std::exception_ptr error;
    std::thread generator([&] {
      try {
        for (std::size_t i = 0; i < due.size(); ++i) {
          std::this_thread::sleep_for(std::chrono::duration<double>(start + due[i] - now_s()));
          outs[i].lag_s = std::max(0.0, now_s() - (start + due[i]));
          outs[i].job = jobs_[static_cast<std::size_t>(order[i])];
          {
            ScopedSpan s("pipeline.submit");
            futures[i] = service_->submit(*outs[i].job).result;
          }
          std::lock_guard<std::mutex> lock(mu);
          submitted = i + 1;
          cv.notify_one();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        error = std::current_exception();
        submitted = due.size() + 1;  // wake the collector
        cv.notify_one();
      }
    });
    // Collector: the single worker resolves jobs in submission order.
    double last = start;
    for (std::size_t i = 0; i < due.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
        if (error) break;
      }
      pl::ReconResult res = futures[i].get();
      last = now_s();
      outs[i].done_s = last;
      outs[i].latency_s = last - (start + due[i]);
      fill_from_result(outs[i], std::move(res));
    }
    generator.join();
    if (error) std::rethrow_exception(error);
    LoopResult r;
    r.jobs = std::move(outs);
    r.start_s = start;
    r.wall_s = last - start;
    return r;
  }

  void teardown() override { service_.reset(); }

  std::vector<double> replay() override {
    constexpr int kWidth = 4;
    if (!cache_) {
      cache_ = std::make_unique<pl::SystemMatrixCache>();
      const auto entry = cache_->get_or_build(jobs_[0]->matrix_key()).entry;
      plan_ = std::make_unique<cscv::core::SpmvPlan<float>>(
          *entry->cscv, cscv::core::PlanOptions{.num_rhs = kWidth, .threads = 1});
    }
    const auto rows = static_cast<std::size_t>(g_.num_rows());
    const auto cols = static_cast<std::size_t>(g_.num_cols());
    AlignedVector<float> b(rows * kWidth);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t c = 0; c < kWidth; ++c) b[i * kWidth + c] = jobs_[c]->sinogram[i];
    }
    const std::vector<cscv::recon::SolveOptions> opts(kWidth, jobs_[0]->solve);
    std::vector<double> out;
    for (int rep = 0; rep < 2; ++rep) {
      const double t0 = now_s();
      {
        ScopedSpan span("job", ++replay_id_);
        {
          ScopedSpan s("pipeline.get_or_build");
          (void)cache_->get_or_build(jobs_[0]->matrix_key());
        }
        AlignedVector<float> x(cols * kWidth, 0.0F);
        const cscv::recon::PlanOperator<float> op(*plan_);
        const TimedOperator timed(op, "core.execute", "core.execute_transpose");
        ScopedSpan s("recon.solve");
        (void)cscv::recon::sirt_batch<float>(timed, b, x, kWidth, opts);
      }
      out.push_back((now_s() - t0) / kWidth);
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  bool smoke_;
  ParallelGeometry g_;
  std::vector<JobPtr> jobs_;
  std::unique_ptr<pl::ReconService> service_;
  std::unique_ptr<pl::SystemMatrixCache> cache_;
  std::unique_ptr<cscv::core::SpmvPlan<float>> plan_;
  std::uint64_t replay_id_ = 0;
};

// ---- sharded_sirt -----------------------------------------------------------

class ShardedSirt final : public Workload {
 public:
  ShardedSirt(std::uint64_t seed, bool smoke)
      : seed_(seed), g_(primary(smoke)), jobs_(pooled_jobs(g_, seed, {pl::Algorithm::kSirt}, 10)) {}
  const char* name() const override { return "sharded_sirt"; }
  int compute_threads() const override { return 3; }  // 2 shard workers + 1 client
  double latency_limit_s() const override { return 2.0; }
  ParallelGeometry primary_geometry() const override { return g_; }
  bool uses_http() const override { return false; }
  bool uses_service() const override { return false; }
  int max_batch() const override { return 1; }

  double setup() override {
    const double t0 = now_s();
    shard_workers_ = std::make_unique<LoopbackShardWorkers>(2);
    backend_ = std::make_unique<cscv::dist::RemoteBackend>(
        cscv::dist::make_shard_specs(*jobs_[0], 2), shard_workers_->endpoints());
    (void)cscv::dist::run_sharded_job(*backend_, *jobs_[0]);
    return now_s() - t0;
  }

  LoopResult run(double seconds) override {
    const std::vector<int> order = pool_sequence(seed_, 1 << 14, kPool);
    LoopResult r;
    const double start = now_s();
    r.start_s = start;
    double prev = start;
    for (std::size_t i = 0; now_s() < start + seconds; ++i) {
      JobOutcome o;
      o.job = jobs_[static_cast<std::size_t>(order[i % order.size()])];
      const double sent = now_s();
      o.lag_s = sent - prev;
      try {
        ScopedSpan s("dist.run_sharded_job");
        o.volume = cscv::dist::run_sharded_job(*backend_, *o.job).volume;
        o.returned = true;
      } catch (const cscv::util::CheckError& e) {
        o.error = e.what();
      }
      prev = now_s();
      o.done_s = prev;
      o.latency_s = prev - sent;
      r.jobs.push_back(std::move(o));
    }
    r.wall_s = prev - start;
    return r;
  }

  void teardown() override {
    if (backend_) {
      backend_->shutdown_workers();
      shard_workers_->join();
    }
    backend_.reset();
    shard_workers_.reset();
  }

  std::vector<double> replay() override {
    std::vector<double> out;
    for (int i = 0; i < kPool; ++i) {
      const pl::ReconJob& job = *jobs_[static_cast<std::size_t>(i)];
      const double t0 = now_s();
      {
        ScopedSpan span("job", ++replay_id_);
        const cscv::dist::ShardedOperator op(*backend_);
        const TimedOperator timed(op, "dist.forward", "dist.adjoint");
        AlignedVector<float> x(static_cast<std::size_t>(g_.num_cols()), 0.0F);
        ScopedSpan s("recon.solve");
        (void)cscv::recon::sirt<float>(timed, job.sinogram, x, job.solve);
      }
      out.push_back(now_s() - t0);
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  ParallelGeometry g_;
  std::vector<JobPtr> jobs_;
  std::unique_ptr<LoopbackShardWorkers> shard_workers_;
  std::unique_ptr<cscv::dist::RemoteBackend> backend_;
  std::uint64_t replay_id_ = 0;
};

// Reference operator for one geometry, built serially exactly as the
// service's cache builds it (one OMP thread), with a CSR copy only when an
// OS-SART job needs it.
pl::SystemMatrixEntry reference_entry(const pl::ReconJob& job, bool with_csr) {
  pl::SystemMatrixEntry e;
  e.geometry = job.geometry;
  e.layout = cscv::core::OperatorLayout::from_geometry(job.geometry);
  e.algorithm = job.algorithm;
  const auto csc = cscv::ct::build_system_matrix_csc<float>(job.geometry);
  e.cscv = std::make_shared<const cscv::core::CscvMatrix<float>>(
      cscv::core::CscvMatrix<float>::build(csc, e.layout, job.cscv, job.variant));
  if (with_csr) {
    e.csr = std::make_shared<const cscv::sparse::CsrMatrix<float>>(cscv::sparse::csr_from_csc(csc));
  }
  return e;
}

}  // namespace

JobPtr make_job(const ParallelGeometry& g, pl::Algorithm algorithm, int iterations,
                AlignedVector<float> sinogram) {
  auto job = std::make_shared<pl::ReconJob>();
  job->geometry = g;
  job->algorithm = algorithm;
  job->solve.iterations = iterations;
  job->sinogram = std::move(sinogram);
  return job;
}

LoopbackShardWorkers::LoopbackShardWorkers(int count) {
  cscv::dist::WorkerOptions options;
  options.poll_seconds = 0.05;  // bounds how long stop() takes to be noticed
  try {
    for (int i = 0; i < count; ++i) {
      workers_.push_back(std::make_unique<cscv::dist::ShardWorker>(options));
      cscv::dist::ShardWorker* w = workers_.back().get();
      endpoints_.push_back({"127.0.0.1", w->port()});
      threads_.emplace_back([w] {
        cscv::util::set_num_threads(1);
        w->run();
      });
    }
  } catch (...) {
    stop();
    throw;
  }
}

LoopbackShardWorkers::~LoopbackShardWorkers() { stop(); }

void LoopbackShardWorkers::join() {
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void LoopbackShardWorkers::stop() {
  // A worker that already stopped itself would close its listener a second
  // time from this thread, so only workers still serving are stopped.
  if (threads_.empty()) return;
  for (auto& w : workers_) w->stop();
  join();
}

HttpStack::HttpStack(const cscv::net::FrontEndOptions& options)
    : front(std::make_unique<cscv::net::ServiceFrontEnd>(options)),
      server(std::make_unique<cscv::net::HttpServer>(front->make_router(),
                                                     cscv::net::ServerOptions{.num_threads = 4})) {}

HttpJob encode(JobPtr job) {
  std::string body = job->to_json().dump();
  return HttpJob{std::move(job), std::move(body)};
}

std::vector<JobOutcome> http_round(cscv::net::HttpClient& client,
                                   const std::vector<const HttpJob*>& jobs) {
  struct Pending {
    std::int64_t id = 0;
    double sent = 0.0;
    bool done = false;
  };
  std::vector<JobOutcome> outs(jobs.size());
  std::vector<Pending> pending(jobs.size());
  std::size_t remaining = jobs.size();
  const auto finish = [&](std::size_t i) {
    outs[i].done_s = now_s();
    outs[i].latency_s = outs[i].done_s - pending[i].sent;
    pending[i].done = true;
    --remaining;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    outs[i].job = jobs[i]->job;
    outs[i].request_bytes = jobs[i]->body.size();
    pending[i].sent = now_s();
    cscv::net::HttpResponse r;
    {
      ScopedSpan s("net.submit");
      r = client.request("POST", "/v1/jobs", jobs[i]->body, {{"Content-Type", "application/json"}});
    }
    outs[i].submit_s = now_s() - pending[i].sent;
    outs[i].requests = 1;
    if (r.status != 202) {
      outs[i].error = "POST /v1/jobs answered " + std::to_string(r.status) + ": " + r.body;
      finish(i);
      continue;
    }
    pending[i].id = cscv::util::Json::parse(r.body).at("id").as_int();
  }
  const std::string ok = pl::job_status_name(pl::JobStatus::kOk);
  while (remaining > 0) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (pending[i].done) continue;
      const std::string url = "/v1/jobs/" + std::to_string(pending[i].id);
      cscv::net::HttpResponse r;
      {
        ScopedSpan s("net.poll");
        r = client.get(url);
      }
      ++outs[i].requests;
      if (r.status != 200) {
        outs[i].error = "GET " + url + " answered " + std::to_string(r.status);
        finish(i);
        continue;
      }
      const auto status = cscv::util::Json::parse(r.body);
      if (status.at("state").as_string() != "done") continue;
      const cscv::util::Json& res = status.at("result");
      outs[i].queue_wait_s = res.at("queue_wait_seconds").as_double();
      outs[i].solve_s = res.at("solve_seconds").as_double();
      outs[i].cache_hit = res.at("cache_hit").as_bool();
      const cscv::util::Json* batch = res.find("batch_size");
      outs[i].batch_size = batch == nullptr ? 1 : static_cast<int>(batch->as_int());
      if (res.at("status").as_string() != ok) {
        outs[i].error = "job finished as " + res.at("status").as_string();
        finish(i);
        continue;
      }
      const double t0 = now_s();
      {
        ScopedSpan s("net.volume_fetch");
        r = client.get(url + "/volume");
      }
      outs[i].fetch_s = now_s() - t0;
      ++outs[i].requests;
      const std::size_t n = static_cast<std::size_t>(jobs[i]->job->geometry.num_cols());
      if (r.status == 200 && r.body.size() == n * sizeof(float)) {
        outs[i].volume.resize(n);
        std::memcpy(outs[i].volume.data(), r.body.data(), r.body.size());
        outs[i].returned = true;
      } else {
        outs[i].error = "volume fetch answered " + std::to_string(r.status) + " with " +
                        std::to_string(r.body.size()) + " bytes";
      }
      finish(i);
    }
    if (remaining > 0) std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }
  return outs;
}

void parallel_tasks(int n, int threads, const std::function<void(int)>& task) {
  std::atomic<int> next{0};
  std::exception_ptr error;
  std::mutex mu;
  std::vector<std::thread> pool;
  for (int t = 0; t < std::min(n, std::max(1, threads)); ++t) {
    pool.emplace_back([&] {
      cscv::util::set_num_threads(1);
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

void check_outputs(std::vector<JobOutcome>& jobs, int threads) {
  // Distinct jobs, grouped by geometry so each reference operator is built
  // once and dropped as soon as its jobs are done.
  using GeoKey = std::tuple<int, int, int>;
  std::map<GeoKey, std::vector<const pl::ReconJob*>> by_geometry;
  std::map<const pl::ReconJob*, AlignedVector<float>> reference;
  for (const JobOutcome& o : jobs) {
    const pl::ReconJob* j = o.job.get();
    if (!reference.emplace(j, AlignedVector<float>()).second) continue;
    by_geometry[{j->geometry.image_size, j->geometry.num_bins, j->geometry.num_views}].push_back(j);
  }
  std::vector<std::vector<const pl::ReconJob*>> groups;
  for (auto& [key, group] : by_geometry) groups.push_back(std::move(group));
  const int outer = std::min(static_cast<int>(groups.size()), std::max(1, threads));
  const int inner = std::max(1, threads / std::max(1, outer));
  std::mutex mu;
  parallel_tasks(static_cast<int>(groups.size()), outer, [&](int g) {
    const auto& group = groups[static_cast<std::size_t>(g)];
    const bool with_csr = std::any_of(group.begin(), group.end(), [](const pl::ReconJob* j) {
      return j->algorithm == pl::Algorithm::kOsSart;
    });
    const pl::SystemMatrixEntry entry = reference_entry(*group.front(), with_csr);
    parallel_tasks(static_cast<int>(group.size()), inner, [&](int k) {
      const pl::ReconJob& job = *group[static_cast<std::size_t>(k)];
      const cscv::core::SpmvPlan<float> plan(*entry.cscv, cscv::core::PlanOptions{.threads = 1});
      pl::ReconResult r = pl::execute_job(job, entry, &plan);
      CSCV_CHECK_MSG(r.status == pl::JobStatus::kOk, "serial reference failed: " << r.error);
      std::lock_guard<std::mutex> lock(mu);
      reference[&job] = std::move(r.volume);
    });
  });
  std::map<int, AlignedVector<float>> phantoms;
  for (JobOutcome& o : jobs) {
    o.matches = o.bitwise = false;
    if (!o.returned) continue;
    const AlignedVector<float>& ref = reference.at(o.job.get());
    if (o.volume.size() != ref.size()) {
      o.error = "volume has " + std::to_string(o.volume.size()) + " elements, want " +
                std::to_string(ref.size());
      continue;
    }
    double diff = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double d = static_cast<double>(o.volume[i]) - ref[i];
      diff += d * d;
      norm += static_cast<double>(ref[i]) * ref[i];
    }
    o.rel_err = norm > 0.0 ? std::sqrt(diff / norm) : std::sqrt(diff);
    o.bitwise = std::memcmp(o.volume.data(), ref.data(), ref.size() * sizeof(float)) == 0;
    o.matches = o.rel_err <= kRelTolerance;
    if (!o.matches) o.error = "relative error " + std::to_string(o.rel_err) + " vs the serial reference";
    const int n = o.job->geometry.image_size;
    auto it = phantoms.find(n);
    if (it == phantoms.end()) it = phantoms.emplace(n, phantom_image(n)).first;
    o.rmse = cscv::util::rmse<float>(o.volume, it->second);
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  if (name == "warm_serve") return std::make_unique<WarmServe>(seed, smoke);
  if (name == "cold_serve") return std::make_unique<ColdServe>(seed, smoke);
  if (name == "burst_batched") return std::make_unique<BurstBatched>(seed, smoke);
  if (name == "sharded_sirt") return std::make_unique<ShardedSirt>(seed, smoke);
  return nullptr;
}

}  // namespace perfbench
