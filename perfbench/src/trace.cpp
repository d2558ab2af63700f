#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <utility>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

// Spans this thread has open, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

int Tracer::begin(std::string name, std::uint64_t job) {
  const int parent = t_open.empty() ? -1 : t_open.back();
  Span s{std::move(name), now_s(), 0.0, parent, job};
  int id = 0;
  {
    cscv::util::MutexLock lock(mu_);
    // Children inherit the job of the span that caused them.
    if (s.job == 0 && parent >= 0) s.job = spans_[static_cast<std::size_t>(parent)].job;
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double t = now_s();
  // ScopedSpan closes spans innermost first; search anyway, so a misuse can
  // never throw from a destructor.
  const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
  cscv::util::MutexLock lock(mu_);
  if (static_cast<std::size_t>(id) < spans_.size()) spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  cscv::util::MutexLock lock(mu_);
  return spans_;
}

void Tracer::clear() {
  cscv::util::MutexLock lock(mu_);
  spans_.clear();
}

Tracer* active_tracer() { return g_tracer.load(std::memory_order_acquire); }
void set_active_tracer(Tracer* tracer) { g_tracer.store(tracer, std::memory_order_release); }

ScopedSpan::ScopedSpan(const char* name, std::uint64_t job) : tracer_(active_tracer()) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name, job);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

double total_duration(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

double total_self(const std::vector<Span>& spans, const std::vector<double>& self,
                  std::string_view name) {
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += self[i];
  }
  return total;
}

cscv::util::Json spans_to_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  cscv::util::Json out = cscv::util::Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    cscv::util::Json j = cscv::util::Json::object();
    j["name"] = spans[i].name;
    j["start_s"] = spans[i].start;
    j["end_s"] = spans[i].end;
    j["parent"] = spans[i].parent;
    j["job"] = spans[i].job;
    j["self_s"] = self[i];
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace perfbench
