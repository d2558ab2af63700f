// Machine-readable benchmark records — the JSON half of the harness.
//
// Every engine x workload run serializes to a BenchRecord: identity keys
// (workload, engine, precision, threads) plus an ordered metric map.
// Records aggregate into a BenchReport with machine/build metadata and a
// schema version; bench_suite writes them, bench_compare diffs them, and
// the per-figure benches emit them next to their text tables (--json=).
// Schema documented in docs/BENCHMARKING.md.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "simd/isa.hpp"
#include "util/assertx.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace cscv::benchlib {

inline constexpr int kBenchSchemaVersion = 1;

/// One measured (workload, engine, precision, threads) cell. Metrics are
/// name -> value in insertion order; names follow the convention that
/// "seconds*" metrics are lower-is-better and rate metrics ("gflops*",
/// "gbps*", "*efficiency*") are higher-is-better (compare.hpp keys off
/// this).
struct BenchRecord {
  std::string workload;   // dataset name, e.g. "128x128"
  std::string engine;     // "CSR", "CSCV-Z", ...
  std::string precision;  // "f32" or "f64"
  int threads = 0;
  int iterations = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void set(const std::string& name, double value) {
    for (auto& [k, v] : metrics) {
      if (k == name) {
        v = value;
        return;
      }
    }
    metrics.emplace_back(name, value);
  }
  [[nodiscard]] const double* find(const std::string& name) const {
    for (const auto& [k, v] : metrics) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  /// Identity key used to match records across reports.
  [[nodiscard]] std::string key() const {
    return workload + "/" + engine + "/" + precision + "/t" + std::to_string(threads);
  }
};

/// A full harness run: metadata + records.
struct BenchReport {
  int schema_version = kBenchSchemaVersion;
  std::string tag;  // e.g. "ci", "pr2", a git sha — caller-chosen
  std::vector<std::pair<std::string, std::string>> machine;  // ordered metadata
  std::vector<BenchRecord> records;

  void set_machine(const std::string& k, const std::string& v) {
    for (auto& [mk, mv] : machine) {
      if (mk == k) {
        mv = v;
        return;
      }
    }
    machine.emplace_back(k, v);
  }
};

/// Standard machine metadata: ISA, OpenMP ceiling, build mode, word size.
/// "isa" is the legacy compile-time description (kept for humans);
/// "isa_tier" is the *runtime-dispatched* kernel tier this process resolved
/// (honoring CSCV_FORCE_ISA) — the key compare.hpp uses to decide whether
/// two reports' timings ran the same kernels.
inline void fill_machine_info(BenchReport& report) {
  report.set_machine("isa", simd::describe_isa());
  report.set_machine("isa_tier",
                     simd::isa_tier_name(core::dispatch::select_tier().tier));
  report.set_machine("omp_max_threads", std::to_string(util::max_threads()));
#ifdef NDEBUG
  report.set_machine("build", "release");
#else
  report.set_machine("build", "debug");
#endif
}

inline util::Json record_to_json(const BenchRecord& r) {
  util::Json j = util::Json::object();
  j["workload"] = util::Json(r.workload);
  j["engine"] = util::Json(r.engine);
  j["precision"] = util::Json(r.precision);
  j["threads"] = util::Json(r.threads);
  j["iterations"] = util::Json(r.iterations);
  util::Json metrics = util::Json::object();
  for (const auto& [k, v] : r.metrics) metrics[k] = util::Json(v);
  j["metrics"] = std::move(metrics);
  return j;
}

inline BenchRecord record_from_json(const util::Json& j) {
  BenchRecord r;
  r.workload = j.at("workload").as_string();
  r.engine = j.at("engine").as_string();
  r.precision = j.at("precision").as_string();
  r.threads = static_cast<int>(j.at("threads").as_int());
  r.iterations = static_cast<int>(j.at("iterations").as_int());
  for (const auto& [k, v] : j.at("metrics").items()) {
    // NaN/inf were serialized as null (json.hpp's guard); drop them rather
    // than resurrecting poison values into comparisons.
    if (v.is_number()) r.metrics.emplace_back(k, v.as_double());
  }
  return r;
}

inline util::Json report_to_json(const BenchReport& report) {
  util::Json j = util::Json::object();
  j["schema_version"] = util::Json(report.schema_version);
  j["tag"] = util::Json(report.tag);
  util::Json machine = util::Json::object();
  for (const auto& [k, v] : report.machine) machine[k] = util::Json(v);
  j["machine"] = std::move(machine);
  util::Json records = util::Json::array();
  for (const auto& r : report.records) records.push_back(record_to_json(r));
  j["records"] = std::move(records);
  return j;
}

inline BenchReport report_from_json(const util::Json& j) {
  BenchReport report;
  report.schema_version = static_cast<int>(j.at("schema_version").as_int());
  CSCV_CHECK_MSG(report.schema_version == kBenchSchemaVersion,
                 "bench report schema_version " << report.schema_version
                                                << " unsupported (want "
                                                << kBenchSchemaVersion << ")");
  report.tag = j.at("tag").as_string();
  for (const auto& [k, v] : j.at("machine").items()) {
    report.machine.emplace_back(k, v.as_string());
  }
  const util::Json& records = j.at("records");
  for (std::size_t i = 0; i < records.size(); ++i) {
    report.records.push_back(record_from_json(records.at(i)));
  }
  return report;
}

inline void write_report_file(const std::string& path, const BenchReport& report) {
  util::write_json_file(path, report_to_json(report));
}

inline BenchReport read_report_file(const std::string& path) {
  return report_from_json(util::read_json_file(path));
}

}  // namespace cscv::benchlib
