// Trustworthy kernel timing: each sample repeats the call until it lasts at
// least kMinSampleSeconds, after a discarded warm-up, so one sample is long
// enough to beat scheduler-tick quantization. A sample set is flagged noisy
// — and retried, then reported as noisy instead of normal — when its
// p10–p90 spread exceeds kSpreadBound of the median, or when a working set
// larger than the LLC was timed faster than its computed bytes allow at the
// measured DRAM bandwidth.
#pragma once

#include <functional>
#include <string>

#include "env.hpp"

namespace perfbench {

inline constexpr double kMinSampleSeconds = 0.02;
inline constexpr int kSamples = 7;
inline constexpr double kSpreadBound = 0.25;

struct KernelTiming {
  double seconds = 0.0;  // median seconds per call
  double spread = 0.0;   // (p90 - p10) / median
  int calls_per_sample = 0;
  bool noisy = false;
  std::string why;  // empty unless noisy
};

/// Times `call`, which moves `bytes` (computed) per call. `dram_bw` is the
/// measured bandwidth in bytes/s (0 disables the roofline check).
KernelTiming time_kernel(const std::function<void()>& call, double bytes,
                         const MachineInfo& machine, double dram_bw);

}  // namespace perfbench
