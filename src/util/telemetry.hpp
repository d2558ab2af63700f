// Performance-telemetry counter layer, always compiled in.
//
// The counters record plan builds, apply timings and per-kernel work
// volumes, surfaced through SpmvPlan::stats().
//
// Counting strategy: the hot loops (kernels.hpp) are never instrumented
// per element or per VxG. Work volumes per apply are structural (total
// VxGs, values, bytes), so the plan records one {timestamp, volume} event
// per execute() at block-loop granularity: two clock reads per apply.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace cscv::util::telemetry {

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Mutable event counters owned by one SpmvPlan (not thread-safe across
/// concurrent execute() calls — plans already forbid those).
struct Counters {
  std::uint64_t plan_builds = 0;
  double plan_build_seconds = 0.0;

  std::uint64_t applies = 0;             // forward execute() calls
  double apply_seconds_total = 0.0;
  double apply_seconds_min = 0.0;        // 0 until the first apply

  std::uint64_t transpose_applies = 0;
  double transpose_seconds_total = 0.0;
  double transpose_seconds_min = 0.0;

  void record_plan_build(double seconds) {
    ++plan_builds;
    plan_build_seconds += seconds;
  }
  void record_apply(double seconds) {
    ++applies;
    apply_seconds_total += seconds;
    apply_seconds_min =
        applies == 1 ? seconds : std::min(apply_seconds_min, seconds);
  }
  void record_transpose(double seconds) {
    ++transpose_applies;
    transpose_seconds_total += seconds;
    transpose_seconds_min = transpose_applies == 1
                                ? seconds
                                : std::min(transpose_seconds_min, seconds);
  }
  void reset() { *this = Counters{}; }
};

}  // namespace cscv::util::telemetry
