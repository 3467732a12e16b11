// Planner benchmark program.
//
//   perfbench --workload <replan_sync|cold_tiers|async_readers> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.jsonl>]
//             [--report <report.json>]
//
// Prints the run environment, findings and every metric with its unit and
// sample count, then, as the last line, one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.  Exits non-zero without
// a result line on a usage error or an unexpected failure.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-out <path>] [--report <path>]\n";
  return 2;
}

std::uint64_t parse_unsigned(const std::string& text, const std::string& flag) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::invalid_argument(flag + " needs a non-negative integer");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string report_path;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = parse_unsigned(value, flag);
      } else if (flag == "--seconds") {
        config.seconds = static_cast<double>(parse_unsigned(value, flag));
        if (config.seconds < 1) return usage("--seconds must be at least 1");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.trace_path = value;
      } else if (flag == "--report") {
        report_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::Report report = perfbench::run_workload(config);
    report.print_details();
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      out << report.full_json();
      if (!out) throw std::runtime_error("cannot write report " + report_path);
    }
    std::cout << report.result_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
