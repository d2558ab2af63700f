#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/assertx.hpp"
#include "util/stats.hpp"

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::add(std::string name, double value, std::string unit) {
  CSCV_CHECK_MSG(valid_metric_name(name), "invalid metric name \"" << name << "\"");
  CSCV_CHECK_MSG(find(name) == nullptr, "metric \"" << name << "\" reported twice");
  CSCV_CHECK_MSG(std::isfinite(value), "metric \"" << name << "\" is not finite");
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::table() const {
  std::string out;
  char line[160];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof line, "  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    out += line;
  }
  return out;
}

cscv::util::Json Report::result_line(bool correct, std::int64_t attempted,
                                     std::int64_t failed) const {
  cscv::util::Json metrics = cscv::util::Json::object();
  for (const Metric& m : metrics_) {
    cscv::util::Json v = cscv::util::Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  cscv::util::Json j = cscv::util::Json::object();
  j["correct"] = correct;
  j["attempted"] = attempted;
  j["failed"] = failed;
  j["metrics"] = std::move(metrics);
  return j;
}

double median(std::vector<double> xs) { return cscv::util::percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  return cscv::util::percentile(std::move(xs), p);
}

double sliced_percentile(const std::vector<std::pair<double, double>>& samples, double start,
                         double span, int slices, double p) {
  CSCV_CHECK_MSG(slices > 0 && span > 0.0, "sliced_percentile needs slices > 0 and span > 0");
  std::vector<std::vector<double>> parts(static_cast<std::size_t>(slices));
  for (const auto& [t, v] : samples) {
    const double at = std::floor((t - start) / span * slices);
    const int k = static_cast<int>(std::clamp(at, 0.0, static_cast<double>(slices - 1)));
    parts[static_cast<std::size_t>(k)].push_back(v);
  }
  std::vector<double> per_part;
  for (auto& v : parts) {
    if (!v.empty()) per_part.push_back(percentile(std::move(v), p));
  }
  return median(std::move(per_part));
}

}  // namespace perfbench
