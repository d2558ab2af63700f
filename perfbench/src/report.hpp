// Metric collection and the result line the benchmark ends with.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Metric names: letters, digits, '_', '.', '-'; at most 64 characters,
/// starting with a letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Adds a metric; CheckError on an invalid or repeated name or a
  /// non-finite value.
  void add(std::string name, double value, std::string unit);

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

  /// One line per metric: name, value, unit.
  [[nodiscard]] std::string table() const;
  /// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
  [[nodiscard]] cscv::util::Json result_line(bool correct, std::int64_t attempted,
                                             std::int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Median and linear-interpolated percentile of a sample (CheckError when
/// empty).
double median(std::vector<double> xs);
double percentile(std::vector<double> xs, double p);

/// Splits [start, start + span) into `slices` equal parts, takes the p-th
/// percentile of the values whose time falls in each non-empty part (times
/// outside go to the nearest end part), and returns the median of those.
/// `samples` holds (time, value) pairs; CheckError when it is empty.
double sliced_percentile(const std::vector<std::pair<double, double>>& samples, double start,
                         double span, int slices, double p);

}  // namespace perfbench
