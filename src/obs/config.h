// Observability configuration: one struct, four env vars, runtime
// toggles (see DESIGN.md "Observability").
//
//   GELC_METRICS      "0" disables the metrics registry (default: on).
//                     Disabled counters/gauges/histograms are no-ops; the
//                     instrumented hot paths pay one relaxed atomic load.
//   GELC_TIMINGS      "1" enables the timing plane (default: off): each
//                     GELC_OBS_SCOPE records into the latency histogram
//                     of its name (obs/timing.h), snapshots gain a
//                     `timings` section, and the exit exporter prints
//                     the latency rollup to stderr. Never affects the
//                     deterministic plane.
//   GELC_TRACE        "1" makes each GELC_OBS_SCOPE record a trace span
//                     (default: off). At process exit the buffered spans
//                     are written to GELC_TRACE_OUT as Chrome/Perfetto
//                     JSON.
//   GELC_TRACE_OUT    Trace output path (default "gelc_trace.json").
//   GELC_METRICS_OUT  Optional path; when set, the metrics snapshot JSON
//                     is written there at process exit (run_benches.sh
//                     uses this to embed metrics into BENCH_p*.json).
//
// The enabled flags can also be flipped at runtime (tests and gelc_stats
// do) via SetMetricsEnabled / SetTimingsEnabled / SetTraceEnabled;
// passing the env-derived default back is done with ResetEnabledFromEnv.
//
// The first read of the config registers the exit exporter (std::atexit),
// which writes the trace file, prints the trace and timing summaries and
// dumps the metrics snapshot. The config, the metrics registry, the trace
// collector and the timing registry are never destroyed, so the exporter
// reads live objects however the program's static destruction is ordered.
#ifndef GELC_OBS_CONFIG_H_
#define GELC_OBS_CONFIG_H_

#include <string>

namespace gelc {
namespace obs {

/// The parsed environment, read once at first use.
struct Config {
  bool metrics_enabled = true;
  bool timings_enabled = false;
  bool trace_enabled = false;
  std::string trace_out = "gelc_trace.json";
  std::string metrics_out;  // empty: no exit-time snapshot dump
};

/// The process-wide configuration (env parsed on first call, which also
/// registers the exit exporter). Never destroyed.
const Config& GlobalConfig();

/// True when counters/gauges/histograms record (hot-path check: one
/// relaxed atomic load).
bool MetricsEnabled();
/// True when scopes read the clock and record into latency histograms
/// (hot-path check: one relaxed atomic load).
bool TimingsEnabled();
/// True when scopes record spans into the trace ring buffers.
bool TraceEnabled();

/// Runtime overrides of the env-derived flags (benchmark sweeps and
/// tests flip these; they affect subsequent records only).
void SetMetricsEnabled(bool enabled);
void SetTimingsEnabled(bool enabled);
void SetTraceEnabled(bool enabled);
/// Restores the flags to the GELC_METRICS / GELC_TIMINGS / GELC_TRACE
/// values.
void ResetEnabledFromEnv();

}  // namespace obs
}  // namespace gelc

#endif  // GELC_OBS_CONFIG_H_
