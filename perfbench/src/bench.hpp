// One benchmark invocation: the untraced run that yields the end-to-end
// metrics, or the traced run that yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "util/json.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    // tiny geometries, for the benchmark's own tests
  std::string out_dir;   // where the run record (and spans) go; "" = nowhere
};

/// Runs the workload and returns the result line ({"correct", "attempted",
/// "failed", "metrics"}). A human-readable report goes to `log`. Throws
/// util::CheckError when the run is refused or cannot complete.
cscv::util::Json run_benchmark(const RunOptions& options, std::ostream& log);

}  // namespace perfbench
