// Machine and environment record, written with every run, and the checks
// that refuse a run whose numbers would not be comparable.
#pragma once

#include <cstddef>
#include <string>

#include "util/json.hpp"

namespace perfbench {

struct MachineInfo {
  int nproc = 0;            // CPUs this process may run on
  int omp_threads = 0;      // omp_get_max_threads() of the main thread
  std::string omp_wait_policy;  // OMP_WAIT_POLICY as set ("" when unset)
  std::string omp_proc_bind;    // OMP_PROC_BIND as set ("" when unset)
  std::string isa_tier;     // kernel tier the dispatcher selects
  std::size_t llc_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;       // PERFBENCH_COMMIT from the launcher, else "unknown"

  [[nodiscard]] cscv::util::Json to_json() const;
};

MachineInfo probe_machine();

/// Empty when the run may go ahead, otherwise why it must not: a build
/// other than an optimized Release build, a wait policy other than
/// passive, or more compute threads than CPUs.
std::string refusal(const MachineInfo& m, int compute_threads);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

}  // namespace perfbench
