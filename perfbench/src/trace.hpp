// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// was open on the same thread when it began (its parent), and the job it
// belongs to. Spans are appended under a mutex and only read after the
// traced phase ends, then written out as JSON. A layer's self time is its
// span minus the part of that interval its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/sync.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  std::uint64_t job = 0;

  [[nodiscard]] double duration() const { return end - start; }
};

class Tracer {
 public:
  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread still has open. Returns the span's index.
  int begin(std::string name, std::uint64_t job = 0);
  /// Closes span `id`, normally the innermost open span of this thread; a
  /// span cleared away in between is ignored.
  void end(int id);

  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

 private:
  mutable cscv::util::Mutex mu_;
  std::vector<Span> spans_ CSCV_GUARDED_BY(mu_);
};

/// The process-wide tracer, or nullptr while tracing is off.
Tracer* active_tracer();
void set_active_tracer(Tracer* tracer);

/// Makes `tracer` (nullptr: none) the active tracer for its lifetime and
/// restores the previous one after, also when an exception unwinds.
class TracerScope {
 public:
  explicit TracerScope(Tracer* tracer) : previous_(active_tracer()) { set_active_tracer(tracer); }
  ~TracerScope() { set_active_tracer(previous_); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* previous_;
};

/// Opens a span on the active tracer for its lifetime; a no-op when
/// tracing is off, so untraced runs pay one pointer test per call.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t job = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span itself.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of durations of the spans called `name`.
double total_duration(const std::vector<Span>& spans, std::string_view name);
/// Sum of self times of the spans called `name`.
double total_self(const std::vector<Span>& spans, const std::vector<double>& self,
                  std::string_view name);

cscv::util::Json spans_to_json(const std::vector<Span>& spans);

}  // namespace perfbench
