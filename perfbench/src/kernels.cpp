#include "kernels.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "report.hpp"
#include "util/timing.hpp"

namespace perfbench {

namespace {

KernelTiming sample_once(const std::function<void()>& call, double bytes,
                         const MachineInfo& machine, double dram_bw) {
  // Warm-up (discarded) doubles as calibration of calls per sample.
  int calls = 0;
  cscv::util::WallTimer warm;
  while (warm.seconds() < kMinSampleSeconds) {
    call();
    ++calls;
  }
  KernelTiming t;
  t.calls_per_sample = std::max(1, calls);
  std::vector<double> per_call;
  for (int s = 0; s < kSamples; ++s) {
    cscv::util::WallTimer timer;
    for (int c = 0; c < t.calls_per_sample; ++c) call();
    per_call.push_back(timer.seconds() / t.calls_per_sample);
  }
  t.seconds = median(per_call);
  t.spread = (percentile(per_call, 90) - percentile(per_call, 10)) / t.seconds;
  std::ostringstream why;
  if (t.spread > kSpreadBound) why << "p10-p90 spread " << t.spread << " > " << kSpreadBound;
  if (dram_bw > 0.0 && bytes > static_cast<double>(machine.llc_bytes) &&
      t.seconds < bytes / dram_bw) {
    why << "faster than computed bytes / DRAM bandwidth";
  }
  t.why = why.str();
  t.noisy = !t.why.empty();
  return t;
}

}  // namespace

KernelTiming time_kernel(const std::function<void()>& call, double bytes,
                         const MachineInfo& machine, double dram_bw) {
  constexpr int kAttempts = 3;
  KernelTiming t;
  for (int a = 0; a < kAttempts; ++a) {
    t = sample_once(call, bytes, machine, dram_bw);
    if (!t.noisy) break;
  }
  return t;
}

}  // namespace perfbench
