// The benchmark's own tests.
//
//   perfbench_selftest <path to BENCHMARK.json>
//
// Checks seeded input generation, metric naming, the sliced p90, span
// self-time arithmetic, and runs every workload once untraced and once
// traced at smoke size, requiring zero failed jobs and exactly the metrics
// BENCHMARK.json names.
// Needs OMP_WAIT_POLICY=passive like the benchmark itself; run it through
// `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/assertx.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::cerr << __FILE__ << ":" << __LINE__ << ": EXPECT(" #cond ")\n"; \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

void seeded_inputs_repeat() {
  const auto a = perfbench::jittered_arrivals(7, 2.5, 10.0);
  const auto b = perfbench::jittered_arrivals(7, 2.5, 10.0);
  const auto c = perfbench::jittered_arrivals(8, 2.5, 10.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() == 25 && a.front() > 0.0 && a.back() < 10.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);

  const auto g1 = perfbench::cold_geometries(7, 36);
  const auto g2 = perfbench::cold_geometries(7, 36);
  const auto g3 = perfbench::cold_geometries(8, 36);
  EXPECT(g1 == g2);
  EXPECT(g1 != g3);
  std::set<std::pair<int, int>> seen;
  for (std::size_t i = 0; i < g1.size(); ++i) {
    const auto& g = g1[i];
    EXPECT(g.image_size >= 80 && g.image_size <= 128);
    EXPECT(g.num_views >= 120 && g.num_views <= 240);
    EXPECT(seen.emplace(g.image_size, g.num_views).second);  // never repeats
  }
  // Every block of six steps visits each image stratum once.
  for (std::size_t block = 0; block + 6 <= g1.size(); block += 6) {
    std::set<int> strata;
    for (std::size_t i = block; i < block + 6; ++i) {
      strata.insert(std::min(5, (g1[i].image_size - 80) / 8));
    }
    EXPECT(strata.size() == 6);
  }

  EXPECT(perfbench::pool_sequence(7, 50, 4) == perfbench::pool_sequence(7, 50, 4));
  const auto s1 = perfbench::noisy_sinogram(cscv::ct::standard_geometry(16, 12), 3);
  const auto s2 = perfbench::noisy_sinogram(cscv::ct::standard_geometry(16, 12), 3);
  EXPECT(s1.size() == s2.size());
  EXPECT(std::equal(s1.begin(), s1.end(), s2.begin()));
}

void metric_names() {
  EXPECT(perfbench::valid_metric_name("job_latency_p50_s"));
  EXPECT(perfbench::valid_metric_name("core.adjoint_over_forward"));
  EXPECT(perfbench::valid_metric_name("a-b.c_9"));
  EXPECT(!perfbench::valid_metric_name(""));
  EXPECT(!perfbench::valid_metric_name(".leading_dot"));
  EXPECT(!perfbench::valid_metric_name("has space"));
  EXPECT(!perfbench::valid_metric_name("slash/not"));
  EXPECT(!perfbench::valid_metric_name(std::string(65, 'a')));
  perfbench::Report r;
  r.add("ok.name", 1.0, "s");
  bool threw = false;
  try {
    r.add("ok.name", 2.0, "s");  // repeated
  } catch (const cscv::util::CheckError&) {
    threw = true;
  }
  EXPECT(threw);
}

void sliced_p90() {
  // 60 samples over [0, 6): value 1 in every second but one, where they
  // read 10. The whole-sample p90 is 10; the median of the six per-second
  // p90s is 1.
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 60; ++i) {
    const double t = 0.1 * i;
    samples.emplace_back(100.0 + t, (t >= 2.0 && t < 3.0) ? 10.0 : 1.0);
  }
  EXPECT(perfbench::sliced_percentile(samples, 100.0, 6.0, 6, 90) == 1.0);
  EXPECT(perfbench::sliced_percentile(samples, 100.0, 6.0, 1, 90) == 10.0);
  // The sample at the very end of the span lands in the last slice.
  samples = {{0.0, 1.0}, {1.0, 3.0}};
  EXPECT(perfbench::sliced_percentile(samples, 0.0, 1.0, 2, 50) == 2.0);
}

void span_self_time() {
  using perfbench::Span;
  // parent [0, 10]; children [1, 3] and [2, 5] overlap (union 4), [9, 12]
  // is clipped to [9, 10]; the grandchild inside [1, 3] never counts
  // against the parent, only against its own parent.
  const std::vector<Span> spans = {
      {"job", 0.0, 10.0, -1, 1},  {"a", 1.0, 3.0, 0, 1},   {"b", 2.0, 5.0, 0, 1},
      {"c", 9.0, 12.0, 0, 1},     {"a.inner", 1.5, 2.5, 1, 1},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT(std::abs(self[0] - 5.0) < 1e-12);
  EXPECT(std::abs(self[1] - 1.0) < 1e-12);
  EXPECT(std::abs(self[2] - 3.0) < 1e-12);
  EXPECT(std::abs(self[3] - 3.0) < 1e-12);
  EXPECT(std::abs(self[4] - 1.0) < 1e-12);
  EXPECT(std::abs(perfbench::total_duration(spans, "a") - 2.0) < 1e-12);
  EXPECT(std::abs(perfbench::total_self(spans, self, "job") - 5.0) < 1e-12);

  // The tracer links parents through nesting on one thread.
  perfbench::Tracer t;
  {
    const perfbench::TracerScope on(&t);
    perfbench::ScopedSpan outer("outer", 42);
    perfbench::ScopedSpan inner("inner");
  }
  EXPECT(perfbench::active_tracer() == nullptr);
  { perfbench::ScopedSpan off("untraced"); }
  const auto got = t.spans();
  EXPECT(got.size() == 2);
  if (got.size() == 2) {
    EXPECT(got[0].parent == -1 && got[1].parent == 0);
    EXPECT(got[1].job == 42);  // inherited from its parent
    EXPECT(got[1].start >= got[0].start && got[1].end <= got[0].end);
  }
}

std::set<std::string> names_in(const cscv::util::Json& spec, const char* section) {
  std::set<std::string> names;
  const auto& list = spec.at(section);
  for (std::size_t i = 0; i < list.size(); ++i) names.insert(list.at(i).at("name").as_string());
  return names;
}

void smoke_runs(const cscv::util::Json& spec) {
  // Every workload the binary has, including sharded_sirt, which runs on
  // demand but is not in BENCHMARK.json's gated set.
  std::set<std::string> names = {"sharded_sirt"};
  const auto& workloads = spec.at("workloads");
  for (std::size_t i = 0; i < workloads.size(); ++i) names.insert(workloads.at(i).at("name").as_string());
  for (const std::string& name : names) {
    for (bool trace : {false, true}) {
      perfbench::RunOptions o;
      o.workload = name;
      o.seed = 3;
      o.seconds = 1.0;
      o.trace = trace;
      o.smoke = true;
      std::ostringstream log;
      cscv::util::Json result;
      try {
        result = perfbench::run_benchmark(o, log);
      } catch (const std::exception& e) {
        std::cerr << name << (trace ? " (traced)" : "") << ": " << e.what() << "\n" << log.str();
        ++g_failures;
        continue;
      }
      EXPECT(result.at("correct").as_bool());
      EXPECT(result.at("attempted").as_int() >= 1);
      EXPECT(result.at("failed").as_int() == 0);
      std::set<std::string> got;
      for (const auto& [metric, value] : result.at("metrics").items()) {
        EXPECT(perfbench::valid_metric_name(metric));
        got.insert(metric);
      }
      const auto want = names_in(spec, trace ? "per_layer" : "end_to_end");
      if (got != want) {
        std::cerr << name << (trace ? " (traced)" : "") << ": metrics differ from BENCHMARK.json\n";
        ++g_failures;
      }
      std::cout << "smoke " << name << (trace ? " traced" : "") << ": ok\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest <path to BENCHMARK.json>\n";
    return 2;
  }
  std::ifstream in(argv[1]);
  std::stringstream text;
  text << in.rdbuf();
  const auto spec = cscv::util::Json::parse(text.str());
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const auto& n : names_in(spec, section)) EXPECT(perfbench::valid_metric_name(n));
  }
  seeded_inputs_repeat();
  metric_names();
  sliced_p90();
  span_self_time();
  smoke_runs(spec);
  if (g_failures != 0) {
    std::cerr << g_failures << " selftest check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selftest: ok\n";
  return 0;
}
