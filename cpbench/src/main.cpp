// cpbench: one benchmark run of the SoftMoW control plane.
//
//   cpbench --workload <peak_churn|gbr_churn|discovery> --seed <n>
//           --seconds <s> --trace <0|1> [--spans <csv path>]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct": ..., "attempted": n, "failed": n, "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <csv>]\nworkloads:");
  for (const auto& spec : cpbench::workloads()) std::fprintf(stderr, " %s", spec.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  cpbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.span_csv = value;
    } else {
      return usage();
    }
  }
  const auto spec = cpbench::find_workload(workload);
  if (!spec) return usage();

  const cpbench::RunResult result = cpbench::run_workload(*spec, options);

  std::string metrics;
  for (const cpbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
               json_escape(m.unit) + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
