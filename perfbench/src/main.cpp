// perfbench — the reconstruction-job benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Prints a human-readable report, then the result line as the last line of
// standard output. Exits non-zero, without a result line, on any failure.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <warm_serve|cold_serve|burst_batched|sharded_sirt>"
               " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--out") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  try {
    const auto result = perfbench::run_benchmark(o, std::cout);
    std::cout << result.dump() << std::endl;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
