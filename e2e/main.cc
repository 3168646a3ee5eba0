// gelc_e2e: the end-to-end benchmark.
//
//   gelc_e2e --workload query|train|stream --seed N --seconds S
//            --trace 0|1 [--revision SHA]
//
// Prints the host context, then every metric with its unit, and as the
// last line one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exits non-zero without a result
// line on bad arguments or when an obs exporter variable is set.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "context.h"

namespace {

using gelc::e2e::Metric;

// These make the library export at process exit, which reads freed
// memory and adds work to the timed ops; counters are read in-process.
constexpr const char* kRefusedEnv[] = {"GELC_TRACE", "GELC_TIMINGS",
                                       "GELC_METRICS_OUT"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "gelc_e2e: %s\nusage: gelc_e2e --workload query|train|stream "
               "--seed N --seconds S --trace 0|1 [--revision SHA]\n",
               why);
  return 2;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %14.6g %-12s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "gelc_e2e: refusing to run with %s set: its exit-time "
                   "exporter reads freed memory and distorts timings. "
                   "Unset it; the benchmark reads the counters itself.\n",
                   name);
      return 2;
    }
  }

  gelc::e2e::RunOptions options;
  std::string revision = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::vector<std::string>& names = gelc::e2e::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  std::string context;
  for (const auto& [key, value] : gelc::e2e::HostContext(revision)) {
    context += (context.empty() ? "" : ", ") + Quoted(key) + ": " +
               Quoted(value);
  }
  std::printf("{\"context\": {%s}}\n", context.c_str());

  gelc::Result<gelc::e2e::RunReport> run = gelc::e2e::RunBenchmark(options);
  if (!run.ok()) return Usage(run.status().ToString().c_str());
  const gelc::e2e::RunReport& report = *run;

  std::printf("workload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& m : report.metrics) PrintMetric(m);
  for (const Metric& m : report.info) PrintMetric(m);

  std::string metrics;
  for (const Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + Quoted(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + Quoted(m.unit) +
               "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
