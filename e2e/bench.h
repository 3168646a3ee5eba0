// The benchmark runner: set-up, the timed passes, and the metrics.
//
// One process, one closed-loop caller: op i+1 is issued only after op i
// returns. A run builds the workload five times, checks it, then
// interleaves passes of two phases, each pass on a fresh build:
//
//   --trace 0  the pool at its default size (at least 1000 executions, so
//              op_p99_ms has ten beyond it) and at 1 thread; end-to-end
//              metrics.
//   --trace 1  untraced, and traced with a span around every layer call
//              and deltas of the library's obs counters; per-layer
//              metrics.
//
// Passes are whole and run until --seconds are used. Op latency is the
// wall time of RunOp; the output checks between ops are not timed. The
// throughputs and op_p50_ms take each op at its median latency over the
// phase's passes, which filters stalls from outside the process.
// op_p99_ms is taken over those medians when a pass has at least 1000
// distinct ops (train, stream), else over every execution (query), so
// every sample beyond it is a distinct op or a real execution. setup_s is
// the median of all builds.
#ifndef GELC_E2E_BENCH_H_
#define GELC_E2E_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "workloads.h"

namespace gelc::e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // a ratio's base or a sample count; printed only
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

struct RunReport {
  /// Ops run plus untimed checks made, and how many of them failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Printed beside the metrics but not part of the result line.
  std::vector<Metric> info;

  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Runs one workload. InvalidArgument for an unknown workload name.
Result<RunReport> RunBenchmark(const RunOptions& options);

/// Names of the metrics each mode reports, in report order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace gelc::e2e

#endif  // GELC_E2E_BENCH_H_
