#include "env.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/dispatch.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

// Last-level cache size from sysfs ("307200K"), falling back to sysconf.
std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t value = std::stoull(text);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  if (best == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) best = static_cast<std::size_t>(l3);
  }
  return best;
}

}  // namespace

cscv::util::Json MachineInfo::to_json() const {
  cscv::util::Json j = cscv::util::Json::object();
  j["nproc"] = nproc;
  j["omp_threads"] = omp_threads;
  j["omp_wait_policy"] = omp_wait_policy;
  j["omp_proc_bind"] = omp_proc_bind.empty() ? std::string("unset") : omp_proc_bind;
  j["isa_tier"] = isa_tier;
  j["llc_mib"] = static_cast<double>(llc_bytes) / (1 << 20);
  j["compiler"] = compiler;
  j["build_type"] = build_type;
  j["commit"] = commit;
  return j;
}

MachineInfo probe_machine() {
  MachineInfo m;
  cpu_set_t set;
  CPU_ZERO(&set);
  m.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  m.omp_threads = cscv::util::max_threads();
  m.omp_wait_policy = env_or_empty("OMP_WAIT_POLICY");
  m.omp_proc_bind = env_or_empty("OMP_PROC_BIND");
  m.isa_tier = cscv::simd::isa_tier_name(cscv::core::dispatch::select_tier().tier);
  m.llc_bytes = llc_bytes();
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.commit = env_or_empty("PERFBENCH_COMMIT");
  if (m.commit.empty()) m.commit = "unknown";
  return m;
}

std::string refusal(const MachineInfo& m, int compute_threads) {
  std::ostringstream why;
#ifndef NDEBUG
  why << "assertions are compiled in (NDEBUG unset); ";
#endif
  if (m.build_type != "Release") why << "build type is \"" << m.build_type << "\", not Release; ";
  if (m.omp_wait_policy != "passive" && m.omp_wait_policy != "PASSIVE") {
    why << "OMP_WAIT_POLICY is \"" << m.omp_wait_policy << "\", not passive; ";
  }
  if (compute_threads > m.nproc) {
    why << "the workload runs " << compute_threads << " compute threads on " << m.nproc
        << " CPUs; ";
  }
  return why.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
