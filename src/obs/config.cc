#include "obs/config.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/snapshot.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace gelc {
namespace obs {

namespace {

bool EnvFlag(const char* name, bool default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return default_value;
  // "0", "false", "off" (any case on the first letter) disable; anything
  // else enables — mirrors GELC_NUM_THREADS's forgiving parsing.
  if (v[0] == '0' || v[0] == 'f' || v[0] == 'F') return false;
  if (v[0] == 'o' || v[0] == 'O') return v[1] == 'n' || v[1] == 'N';
  return true;
}

std::string EnvString(const char* name, const char* default_value) {
  const char* v = std::getenv(name);
  return (v == nullptr) ? default_value : v;
}

std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> flag{GlobalConfig().metrics_enabled};
  return flag;
}

std::atomic<bool>& TimingsFlag() {
  static std::atomic<bool> flag{GlobalConfig().timings_enabled};
  return flag;
}

std::atomic<bool>& TraceFlag() {
  static std::atomic<bool> flag{GlobalConfig().trace_enabled};
  return flag;
}

// Writes the trace file, prints the trace and timing summaries, and
// dumps the optional metrics snapshot. Registered with std::atexit by the
// first GlobalConfig() call; everything it reads is never destroyed.
void ExportAtExit() {
  const Config& config = GlobalConfig();
  if (config.trace_enabled && TraceEventCount() > 0) {
    // Status::ToString lives in gelc_base (which links *us*); print the
    // message directly so gelc_obs stays link-standalone.
    Status s = WriteTrace(config.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "gelc: %s\n", s.message().c_str());
    } else {
      std::fprintf(stderr, "gelc: trace written to %s (%zu spans)\n",
                   config.trace_out.c_str(), TraceEventCount());
      std::fputs(TraceSummaryText().c_str(), stderr);
    }
  }
  if (config.timings_enabled && TimingObservationCount() > 0) {
    // The timing plane's rollup goes to stderr like the trace summary;
    // it never touches the deterministic snapshot goldens.
    std::fputs(TimingSummaryText().c_str(), stderr);
  }
  if (!config.metrics_out.empty()) {
    Status s = WriteSnapshotJson(config.metrics_out);
    if (!s.ok()) std::fprintf(stderr, "gelc: %s\n", s.message().c_str());
  }
}

}  // namespace

const Config& GlobalConfig() {
  static const Config& config = []() -> const Config& {
    auto* c = new Config;  // NOLINT(banned-alloc): never destroyed
    c->metrics_enabled = EnvFlag("GELC_METRICS", true);
    c->timings_enabled = EnvFlag("GELC_TIMINGS", false);
    c->trace_enabled = EnvFlag("GELC_TRACE", false);
    c->trace_out = EnvString("GELC_TRACE_OUT", "gelc_trace.json");
    c->metrics_out = EnvString("GELC_METRICS_OUT", "");
    std::atexit(ExportAtExit);
    return *c;
  }();
  return config;
}

bool MetricsEnabled() {
  return MetricsFlag().load(std::memory_order_relaxed);
}

bool TimingsEnabled() {
  return TimingsFlag().load(std::memory_order_relaxed);
}

bool TraceEnabled() { return TraceFlag().load(std::memory_order_relaxed); }

void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}

void SetTimingsEnabled(bool enabled) {
  TimingsFlag().store(enabled, std::memory_order_relaxed);
}

void SetTraceEnabled(bool enabled) {
  TraceFlag().store(enabled, std::memory_order_relaxed);
}

void ResetEnabledFromEnv() {
  SetMetricsEnabled(GlobalConfig().metrics_enabled);
  SetTimingsEnabled(GlobalConfig().timings_enabled);
  SetTraceEnabled(GlobalConfig().trace_enabled);
}

}  // namespace obs
}  // namespace gelc
