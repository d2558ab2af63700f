// run_benchmark: the untraced run (end-to-end metrics) and the traced run
// (per-layer metrics). The traced run has three parts:
//
//   1. the workload's own loop for a short while with spans on, giving the
//      service, network and client metrics of its own path;
//   2. a serial replay of a few of its jobs, alternately untraced and
//      traced, giving the acquisition and operator shares of job time and
//      the tracing overhead;
//   3. probes that time each layer's public calls on the workload's primary
//      geometry (ct, sparse, core kernels, recon solvers, pipeline cache,
//      dist shards) plus the DRAM bandwidth the kernel samples are checked
//      against. Layers the workload's own path does not cross (HTTP for
//      burst_batched, the service for sharded_sirt) are measured by a small
//      service probe instead.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "benchlib/bandwidth.hpp"
#include "core/plan.hpp"
#include "core/verify.hpp"
#include "ct/system_matrix.hpp"
#include "dist/coordinator.hpp"
#include "dist/sharded_operator.hpp"
#include "dist/worker.hpp"
#include "env.hpp"
#include "inputs.hpp"
#include "kernels.hpp"
#include "pipeline/matrix_cache.hpp"
#include "recon/fbp.hpp"
#include "recon/os_sart.hpp"
#include "report.hpp"
#include "sparse/convert.hpp"
#include "timed_operator.hpp"
#include "trace.hpp"
#include "util/assertx.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pl = cscv::pipeline;
using cscv::ct::ParallelGeometry;
using cscv::util::AlignedVector;

namespace {

constexpr int kMinSetups = 3;              // set-ups per untraced run
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetSeconds = 3.0;
constexpr double kTracedLoopSeconds = 3.0;  // part 1 of the traced run
constexpr int kProbeIterations = 10;       // solver probes, as in the workloads
// job_latency_p90_s is the median over this many equal slices of the timed
// phase (by completion time) of each slice's p90. The host's speed drifts
// over seconds; a p90 over the whole run reports its slowest stretch.
constexpr int kLatencySlices = 6;

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

template <typename F>
std::vector<double> collect(const std::vector<JobOutcome>& jobs, F&& field) {
  std::vector<double> out;
  for (const JobOutcome& o : jobs) {
    const double v = field(o);
    if (v >= 0.0) out.push_back(v);
  }
  return out;
}

template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

AlignedVector<float> random_vector(std::size_t n, std::uint64_t seed) {
  cscv::util::Rng rng(seed);
  AlignedVector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(0.0, 1.0));
  return v;
}

// Kernel timings, with the noisy ones listed for the run record.
struct KernelLog {
  const MachineInfo* machine = nullptr;
  double dram_bw = 0.0;  // bytes/s
  cscv::util::Json detail = cscv::util::Json::object();
  int noisy = 0;

  double time(const std::string& name, const std::function<void()>& call, double bytes) {
    const KernelTiming t = time_kernel(call, bytes, *machine, dram_bw);
    cscv::util::Json j = cscv::util::Json::object();
    j["seconds"] = t.seconds;
    j["spread"] = t.spread;
    j["calls_per_sample"] = t.calls_per_sample;
    j["computed_bytes"] = bytes;
    j["noisy"] = t.noisy;
    if (t.noisy) {
      j["why"] = t.why;
      ++noisy;
    }
    detail[name] = std::move(j);
    return t.seconds;
  }
};

// ---- part 3: layer probes ---------------------------------------------------

void probe_core_and_recon(const ParallelGeometry& g, std::uint64_t seed, KernelLog& k,
                          Report& r) {
  const MachineInfo& m = *k.machine;
  cscv::sparse::CscMatrix<float> csc;
  r.add("ct.csc_build_s", timed([&] { csc = cscv::ct::build_system_matrix_csc<float>(g); }), "s");
  r.add("ct.nnz", static_cast<double>(csc.nnz()), "count");

  cscv::sparse::CsrMatrix<float> csr;
  r.add("sparse.csr_from_csc_s", timed([&] { csr = cscv::sparse::csr_from_csc(csc); }), "s");

  const auto layout = cscv::core::OperatorLayout::from_geometry(g);
  cscv::core::CscvMatrix<float> cscv;
  r.add("core.cscv_build_s", timed([&] {
          cscv = cscv::core::CscvMatrix<float>::build(csc, layout, cscv::core::CscvParams{},
                                                      cscv::core::CscvMatrix<float>::Variant::kM);
        }),
        "s");
  cscv::core::VerifyReport rep;
  r.add("core.verify_s", timed([&] { rep = cscv::core::verify(cscv); }), "s");
  rep.require_ok("perfbench probe matrix");

  std::unique_ptr<cscv::core::SpmvPlan<float>> p1;
  std::unique_ptr<cscv::core::SpmvPlan<float>> p4;
  r.add("core.plan_build_k1_s", timed([&] {
          p1 = std::make_unique<cscv::core::SpmvPlan<float>>(cscv, cscv::core::PlanOptions{.threads = 1});
        }),
        "s");
  r.add("core.plan_build_k4_s", timed([&] {
          p4 = std::make_unique<cscv::core::SpmvPlan<float>>(
              cscv, cscv::core::PlanOptions{.num_rhs = 4, .threads = 1});
        }),
        "s");

  const auto rows = static_cast<std::size_t>(g.num_rows());
  const auto cols = static_cast<std::size_t>(g.num_cols());
  const auto x = random_vector(cols, seed);
  const auto yin = random_vector(rows, seed + 1);
  AlignedVector<float> y(rows);
  AlignedVector<float> xt(cols);
  const cscv::core::PlanStats st = p1->stats();
  const double bytes = static_cast<double>(st.matrix_bytes + st.vector_bytes_per_apply);
  const double fwd = k.time("core.forward_s", [&] { p1->execute(x, y); }, bytes);
  const double adj = k.time("core.adjoint_s", [&] { p1->execute_transpose(yin, xt); }, bytes);
  // The paper's CSR baseline on the same matrix: values + column indices +
  // row offsets, plus x read and y written once (computed bytes).
  const double csr_bytes =
      static_cast<double>(csr.nnz()) * (sizeof(float) + sizeof(cscv::sparse::index_t)) +
      static_cast<double>(rows + 1) * sizeof(cscv::sparse::offset_t) +
      static_cast<double>(rows + cols) * sizeof(float);
  const double csr_fwd = k.time("sparse.csr_forward_s", [&] { csr.spmv(x, y); }, csr_bytes);
  r.add("sparse.csr_forward_s", csr_fwd, "s");
  r.add("core.forward_s", fwd, "s");
  r.add("core.adjoint_s", adj, "s");
  r.add("core.adjoint_over_forward", adj / fwd, "ratio");
  r.add("core.speedup_vs_csr", csr_fwd / fwd, "ratio");
  r.add("core.forward_gbps", bytes / fwd / 1e9, "GB/s");
  r.add("core.adjoint_gbps", bytes / adj / 1e9, "GB/s");
  r.add("core.vxg_occupancy", st.vxg_occupancy, "ratio");
  r.add("core.matrix_bytes", static_cast<double>(st.matrix_bytes), "B");
  r.add("core.working_set_over_llc",
        bytes / static_cast<double>(std::max<std::size_t>(1, m.llc_bytes)), "ratio");

  const auto x4 = random_vector(cols * 4, seed + 2);
  const auto y4in = random_vector(rows * 4, seed + 3);
  AlignedVector<float> y4(rows * 4);
  AlignedVector<float> x4t(cols * 4);
  const cscv::core::PlanStats st4 = p4->stats();
  const double bytes4 = static_cast<double>(st4.matrix_bytes + st4.vector_bytes_per_apply);
  r.add("core.spmm4_forward_s", k.time("core.spmm4_forward_s", [&] { p4->execute(x4, y4); }, bytes4),
        "s");
  r.add("core.spmm4_adjoint_s",
        k.time("core.spmm4_adjoint_s", [&] { p4->execute_transpose(y4in, x4t); }, bytes4), "s");

  // recon: SIRT and CGLS through the timing decorator, so each iteration
  // splits into forward, adjoint and the solver's own vector work.
  const auto sino = noisy_sinogram(g, sub_seed(seed, 300));
  Tracer tracer;
  {
    const TracerScope on(&tracer);
    const cscv::recon::PlanOperator<float> op(*p1);
    const TimedOperator top(op, "core.execute", "core.execute_transpose");
    const cscv::recon::SolveOptions so{.iterations = kProbeIterations};
    AlignedVector<float> xs(cols, 0.0F);
    {
      ScopedSpan s("recon.sirt");
      (void)cscv::recon::sirt<float>(top, sino, xs, so);
    }
    std::fill(xs.begin(), xs.end(), 0.0F);
    {
      ScopedSpan s("recon.cgls");
      (void)cscv::recon::cgls<float>(top, sino, xs, so);
    }
  }
  const auto spans = tracer.spans();
  const auto self = self_times(spans);
  const double sirt = total_duration(spans, "recon.sirt");
  const double cgls = total_duration(spans, "recon.cgls");
  r.add("recon.sirt_iter_s", sirt / kProbeIterations, "s");
  r.add("recon.cgls_iter_s", cgls / kProbeIterations, "s");
  r.add("recon.forward_share", total_duration(spans, "core.execute") / (sirt + cgls), "ratio");
  r.add("recon.adjoint_share", total_duration(spans, "core.execute_transpose") / (sirt + cgls),
        "ratio");
  r.add("recon.vecops_s",
        (total_self(spans, self, "recon.sirt") + total_self(spans, self, "recon.cgls")) /
            (2 * kProbeIterations),
        "s");

  {
    AlignedVector<float> xo(cols, 0.0F);
    const cscv::recon::OsSartOptions oo{.iterations = 1, .num_subsets = 8};
    r.add("recon.os_sart_epoch_s",
          timed([&] { (void)cscv::recon::os_sart<float>(csr, layout, sino, xo, oo); }), "s");
    const cscv::recon::PlanOperator<float> op(*p1);
    r.add("recon.fbp_s", timed([&] { (void)cscv::recon::fbp<float>(g, op, sino); }), "s");
  }
}

void probe_pipeline(const ParallelGeometry& g, bool smoke, Report& r) {
  {
    pl::SystemMatrixCache cache;
    pl::MatrixKey key;
    key.geometry = g;
    r.add("pipeline.acquire_miss_s", cache.get_or_build(key).seconds, "s");
    std::vector<double> hits;
    for (int i = 0; i < 101; ++i) hits.push_back(cache.get_or_build(key).seconds);
    r.add("pipeline.acquire_hit_s", median(hits), "s");
  }
  // Structural: how many operator builds cold_serve's job mix pays per
  // geometry. A small geometry suffices — the count does not depend on size.
  pl::SystemMatrixCache cache;
  pl::MatrixKey key;
  key.geometry = cscv::ct::standard_geometry(smoke ? 16 : 48, smoke ? 12 : 48);
  for (pl::Algorithm a : {pl::Algorithm::kSirt, pl::Algorithm::kOsSart, pl::Algorithm::kFbp}) {
    key.algorithm = a;
    (void)cache.get_or_build(key);
  }
  r.add("pipeline.cache_builds_per_geometry", static_cast<double>(cache.stats().builds), "count");
}

void probe_dist(const ParallelGeometry& g, std::uint64_t seed, KernelLog& k, Report& r) {
  const auto job = make_job(g, pl::Algorithm::kSirt, 1, noisy_sinogram(g, sub_seed(seed, 400)));
  const auto specs = cscv::dist::make_shard_specs(*job, 2);
  LoopbackShardWorkers workers(2);
  std::unique_ptr<cscv::dist::RemoteBackend> remote;
  r.add("dist.shard_build_s", timed([&] {
          remote = std::make_unique<cscv::dist::RemoteBackend>(specs, workers.endpoints());
        }),
        "s");
  const auto rows = static_cast<std::size_t>(g.num_rows());
  const auto cols = static_cast<std::size_t>(g.num_cols());
  const auto x = random_vector(cols, seed + 4);
  const auto yin = random_vector(rows, seed + 5);
  AlignedVector<float> y(rows);
  AlignedVector<float> xt(cols);
  // Bytes on the wire per SIRT iteration (computed, payload only): the
  // forward scatters x to every shard and gathers y; the adjoint scatters
  // y and gathers one x-sized partial per shard.
  const double shards = static_cast<double>(specs.size());
  const double wire = 2.0 * (shards * static_cast<double>(cols) + static_cast<double>(rows)) *
                      sizeof(float);
  const cscv::dist::ShardedOperator rop(*remote);
  const double rf = k.time("dist.forward_s", [&] { rop.forward(x, y); }, wire / 2);
  const double ra = k.time("dist.adjoint_s", [&] { rop.adjoint(yin, xt); }, wire / 2);
  cscv::dist::LocalBackend local(specs);
  const cscv::dist::ShardedOperator lop(local);
  const double lf = k.time("dist.local_forward_s", [&] { lop.forward(x, y); }, 0.0);
  const double la = k.time("dist.local_adjoint_s", [&] { lop.adjoint(yin, xt); }, 0.0);
  r.add("dist.forward_s", rf, "s");
  r.add("dist.adjoint_s", ra, "s");
  r.add("dist.remote_over_local", (rf + ra) / (lf + la), "ratio");
  r.add("dist.bytes_per_iter", wire, "B");
  remote->shutdown_workers();
  workers.join();
}

// HTTP and service metrics for workloads whose own path skips those layers:
// four 2-iteration SIRT jobs on a small geometry, submitted together to a
// two-worker front end after one warm-up job.
std::vector<JobOutcome> probe_service(std::uint64_t seed, bool smoke) {
  const auto g = cscv::ct::standard_geometry(smoke ? 16 : 64, smoke ? 12 : 96);
  cscv::net::FrontEndOptions o;
  o.service.num_workers = 2;
  o.service.omp_threads_per_worker = 1;
  HttpStack stack(o);
  cscv::net::HttpClient client("127.0.0.1", stack.server->port());
  std::vector<HttpJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(encode(make_job(g, pl::Algorithm::kSirt, 2,
                                   noisy_sinogram(g, sub_seed(seed, 500 + static_cast<std::uint64_t>(i))))));
  }
  (void)http_round(client, {&jobs[0]});
  return http_round(client, {&jobs[1], &jobs[2], &jobs[3], &jobs[4]});
}

void service_metrics(const std::vector<JobOutcome>& jobs, int max_batch, Report& r) {
  const auto waits = collect(jobs, [](const JobOutcome& o) { return o.queue_wait_s; });
  CSCV_CHECK_MSG(!waits.empty(), "no job reported its queue wait");
  r.add("pipeline.queue_wait_p50_s", median(waits), "s");
  r.add("pipeline.queue_wait_p90_s", percentile(waits, 90), "s");
  const auto sizes = collect(jobs, [](const JobOutcome& o) { return static_cast<double>(o.batch_size); });
  r.add("pipeline.batch_fill_rate", mean(sizes) / max_batch, "ratio");
  double batches = 0.0;
  for (double s : sizes) {
    if (s >= 2) batches += 1.0 / s;
  }
  r.add("pipeline.batches", batches, "count");
  r.add("pipeline.solve_s", median(collect(jobs, [](const JobOutcome& o) { return o.solve_s; })),
        "s");
  r.add("pipeline.cache_hit_rate",
        mean(collect(jobs, [](const JobOutcome& o) { return o.cache_hit ? 1.0 : 0.0; })), "ratio");
}

void net_metrics(const std::vector<JobOutcome>& jobs, Report& r) {
  const auto submits = collect(jobs, [](const JobOutcome& o) { return o.submit_s; });
  const auto fetches = collect(jobs, [](const JobOutcome& o) { return o.fetch_s; });
  CSCV_CHECK_MSG(!submits.empty() && !fetches.empty(), "no HTTP job completed");
  r.add("net.submit_s", median(submits), "s");
  r.add("net.volume_fetch_s", median(fetches), "s");
  double requests = 0.0;
  double useful = 0.0;
  for (const JobOutcome& o : jobs) {
    requests += o.requests;
    useful += o.returned ? 1.0 : 0.0;
  }
  r.add("net.polls_per_job", requests / std::max(1.0, useful), "ratio");
  r.add("net.request_bytes",
        mean(collect(jobs, [](const JobOutcome& o) { return static_cast<double>(o.request_bytes); })),
        "B");
}

void write_record(const RunOptions& o, const MachineInfo& m, const cscv::util::Json& result,
                  cscv::util::Json extra) {
  if (o.out_dir.empty()) return;
  ::mkdir(o.out_dir.c_str(), 0755);
  cscv::util::Json j = std::move(extra);
  j["workload"] = o.workload;
  j["seed"] = o.seed;
  j["seconds"] = o.seconds;
  j["trace"] = o.trace;
  j["machine"] = m.to_json();
  j["result"] = result;
  const std::string path = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           (o.trace ? "-traced" : "") + ".json";
  std::ofstream(path) << j.dump(1) << "\n";
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
};

Tally tally(const std::vector<JobOutcome>& jobs, std::ostream& log) {
  Tally t;
  t.attempted = static_cast<std::int64_t>(jobs.size());
  for (const JobOutcome& o : jobs) {
    if (o.matches) continue;
    ++t.failed;
    if (o.returned) t.correct = false;  // answered, but with a wrong volume
    if (t.failed <= 5) log << "# failed job: " << o.error << "\n";
  }
  return t;
}

cscv::util::Json untraced(const RunOptions& o, Workload& w, const MachineInfo& m,
                          std::ostream& log) {
  // setup_s is the median of several set-ups: at least kMinSetups, and
  // more (up to kMaxSetups) while they stay cheap.
  std::vector<double> setups;
  double spent = 0.0;
  for (;;) {
    setups.push_back(w.setup());
    spent += setups.back();
    const int n = static_cast<int>(setups.size());
    if (n >= kMaxSetups || (n >= kMinSetups && spent >= kSetupBudgetSeconds)) break;
    w.teardown();
  }
  LoopResult res = w.run(o.seconds);
  w.teardown();
  const double rss = peak_rss_mib();
  check_outputs(res.jobs, m.nproc);
  const Tally t = tally(res.jobs, log);
  CSCV_CHECK_MSG(t.attempted > 0, "the run completed no job");

  // Latency counts every answered job, right or wrong (wrong ones show in
  // `correct` and `failed`); throughput counts only correct volumes.
  const auto lat = collect(res.jobs, [](const JobOutcome& j) { return j.returned ? j.latency_s : -1.0; });
  CSCV_CHECK_MSG(!lat.empty(), "no job returned a volume");
  const double limit = w.latency_limit_s();
  int within = 0;
  for (const JobOutcome& j : res.jobs) within += (j.matches && j.latency_s <= limit) ? 1 : 0;
  std::vector<std::pair<double, double>> done_lat;
  for (const JobOutcome& j : res.jobs) {
    if (j.returned) done_lat.emplace_back(j.done_s, j.latency_s);
  }
  const double p90 = sliced_percentile(done_lat, res.start_s, res.wall_s, kLatencySlices, 90);
  int beyond = 0;
  for (double l : lat) beyond += l > p90 ? 1 : 0;

  Report r;
  r.add("job_latency_p50_s", median(lat), "s");
  r.add("job_latency_p90_s", p90, "s");
  r.add("jobs_per_s", static_cast<double>(t.attempted - t.failed) / res.wall_s, "1/s");
  r.add("setup_s", median(setups), "s");
  r.add("ok_frac", 1.0 - static_cast<double>(t.failed) / static_cast<double>(t.attempted), "ratio");
  r.add("within_limit_frac", within / static_cast<double>(t.attempted), "ratio");
  r.add("rmse_vs_phantom", mean(collect(res.jobs, [](const JobOutcome& j) { return j.rmse; })),
        "au");
  r.add("peak_rss_mb", rss, "MiB");

  log << "# " << w.name() << ": " << t.attempted << " jobs attempted, " << t.failed
      << " failed (failed_frac " << static_cast<double>(t.failed) / static_cast<double>(t.attempted)
      << "), over_limit_frac " << 1.0 - within / static_cast<double>(t.attempted) << " at "
      << limit << " s; latency samples " << lat.size() << ", " << beyond
      << " beyond p90; set-ups " << setups.size() << "\n"
      << r.table();
  cscv::util::Json result = r.result_line(t.correct, t.attempted, t.failed);
  cscv::util::Json extra = cscv::util::Json::object();
  extra["latency_samples"] = static_cast<double>(lat.size());
  extra["beyond_p90"] = beyond;
  extra["whole_run_p90_s"] = percentile(lat, 90);
  double max_rel_err = 0.0;
  for (const JobOutcome& j : res.jobs) max_rel_err = std::max(max_rel_err, j.rel_err);
  extra["max_rel_err"] = max_rel_err;
  cscv::util::Json per_job = cscv::util::Json::array();
  for (const JobOutcome& j : res.jobs) {
    cscv::util::Json e = cscv::util::Json::object();
    e["latency_s"] = j.latency_s;
    e["done_s"] = j.done_s - res.start_s;
    e["algorithm"] = pl::algorithm_name(j.job->algorithm);
    per_job.push_back(std::move(e));
  }
  extra["jobs"] = std::move(per_job);
  write_record(o, m, result, std::move(extra));
  return result;
}

cscv::util::Json traced(const RunOptions& o, Workload& w, const MachineInfo& m,
                        std::ostream& log) {
  Report r;
  Tracer tracer;

  // Part 1: the workload's own loop, traced.
  LoopResult loop;
  {
    const TracerScope on(&tracer);
    (void)w.setup();
    loop = w.run(std::min(o.seconds, kTracedLoopSeconds));
  }

  // Part 2: serial replay — one discarded warm-up pass, then untraced and
  // traced passes in the order u t t u, so drift cancels out of the ratio.
  const auto loop_spans = tracer.spans();
  tracer.clear();
  (void)w.replay();
  std::vector<double> plain;
  std::vector<double> with_spans;
  for (bool on : {false, true, true, false}) {
    const TracerScope scope(on ? &tracer : nullptr);
    for (double s : w.replay()) (on ? with_spans : plain).push_back(s);
  }
  w.teardown();
  const auto spans = tracer.spans();
  const double job_time = total_duration(spans, "job");
  const double applies = total_duration(spans, "core.execute") +
                         total_duration(spans, "core.execute_transpose") +
                         total_duration(spans, "dist.forward") + total_duration(spans, "dist.adjoint");

  check_outputs(loop.jobs, m.nproc);
  const Tally t = tally(loop.jobs, log);
  CSCV_CHECK_MSG(t.attempted > 0, "the traced loop completed no job");

  // Part 3: probes.
  KernelLog k;
  k.machine = &m;
  // Single-thread read bandwidth over 4x the LLC, so the reads come from
  // DRAM: the bound kernel samples are checked against.
  const std::size_t dram_mib = o.smoke ? 64 : std::max<std::size_t>(1, (4 * m.llc_bytes) >> 20);
  k.dram_bw = cscv::benchlib::measure_peak_bandwidth(dram_mib);
  const ParallelGeometry g = w.primary_geometry();
  probe_core_and_recon(g, o.seed, k, r);
  probe_pipeline(g, o.smoke, r);
  probe_dist(g, o.seed, k, r);

  const std::vector<JobOutcome> probe =
      w.uses_http() && w.uses_service() ? std::vector<JobOutcome>() : probe_service(o.seed, o.smoke);
  service_metrics(w.uses_service() ? loop.jobs : probe, w.uses_service() ? w.max_batch() : 1, r);
  int returned = 0;
  int bitwise = 0;
  for (const JobOutcome& j : loop.jobs) {
    returned += j.returned ? 1 : 0;
    bitwise += j.bitwise ? 1 : 0;
  }
  r.add("pipeline.bitwise_match_frac", static_cast<double>(bitwise) / std::max(1, returned), "ratio");
  net_metrics(w.uses_http() ? loop.jobs : probe, r);

  r.add("bench.generator_lag_p90_s",
        percentile(collect(loop.jobs, [](const JobOutcome& j) { return j.lag_s; }), 90), "s");
  r.add("bench.trace_overhead", median(with_spans) / median(plain), "ratio");
  r.add("bench.acquire_share", total_duration(spans, "pipeline.get_or_build") / job_time, "ratio");
  r.add("bench.apply_share", applies / job_time, "ratio");
  r.add("bench.dram_bw_gbps", k.dram_bw / 1e9, "GB/s");
  r.add("bench.dram_buffer_mib", static_cast<double>(dram_mib), "MiB");
  r.add("bench.noisy_samples", k.noisy, "count");

  log << "# " << w.name() << " (traced): " << loop.jobs.size() << " jobs in the traced loop, "
      << t.failed << " failed; " << loop_spans.size() << " loop spans, " << spans.size()
      << " replay spans; " << k.noisy
      << " noisy kernel sample sets\n"
      << r.table();
  cscv::util::Json result = r.result_line(t.correct, t.attempted, t.failed);
  cscv::util::Json extra = cscv::util::Json::object();
  extra["kernels"] = std::move(k.detail);
  extra["loop_spans"] = spans_to_json(loop_spans);
  extra["replay_spans"] = spans_to_json(spans);
  write_record(o, m, result, std::move(extra));
  return result;
}

}  // namespace

cscv::util::Json run_benchmark(const RunOptions& o, std::ostream& log) {
  const auto w = make_workload(o.workload, o.seed, o.smoke);
  CSCV_CHECK_MSG(w != nullptr, "unknown workload \"" << o.workload << "\"");
  CSCV_CHECK_MSG(o.seconds > 0.0, "--seconds must be positive");
  // Kernel probes and the main thread's own calls run on one OMP thread,
  // like the workers of every workload.
  cscv::util::set_num_threads(1);
  const MachineInfo m = probe_machine();
  log << "# machine " << m.to_json().dump() << "\n";
  const std::string why = refusal(m, w->compute_threads());
  CSCV_CHECK_MSG(why.empty(), "refusing to run: " << why);
  return o.trace ? traced(o, *w, m, log) : untraced(o, *w, m, log);
}

}  // namespace perfbench
