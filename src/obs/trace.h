// Scoped instrumentation: one RAII scope feeds both observability planes
// (see DESIGN.md "Observability").
//
//   void RunRound(size_t r) {
//     GELC_OBS_SCOPE("wl.round", {{"round", r}});
//     ...
//   }
//
// A scope reads the clock when it opens and when it closes, and only if
// tracing or timings were on when it opened. On close it
//  - records a span (name, start, duration, nesting depth, small integer
//    args) into a lock-free ring buffer owned by the calling thread, if
//    TraceEnabled(); the collector drains every buffer on export;
//  - observes the LatencyHistogram of the same name (obs/timing.h) with
//    its inclusive and exclusive nanoseconds, if TimingsEnabled().
// Each open scope links to the scope open around it on the same thread;
// that link gives the span depth and the exclusive time (inclusive minus
// the direct children). With both planes off a scope costs two relaxed
// atomic loads and no clock read. Arg keys must be string literals (the
// ring buffer stores the pointers, not copies); the span name is the
// series name, which the never-destroyed timing registry owns.
//
// Two trace exporters:
//   TraceJson()        — Chrome chrome://tracing / Perfetto "traceEvents"
//                        JSON (complete "X" events, microsecond ts/dur)
//   TraceSummaryText() — a merged call tree with call counts and
//                        inclusive/exclusive milliseconds per path
//
// Timing policy: trace.cc is the only TU outside bench/ that reads a
// clock — the adhoc-timing lint rule enforces it. Wall times never enter
// the metrics registry, which stays deterministic.
#ifndef GELC_OBS_TRACE_H_
#define GELC_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/status.h"
#include "obs/config.h"
#include "obs/timing.h"

namespace gelc {
namespace obs {

/// One span argument: a string-literal key and an integer value. The
/// constructor is templated so brace-init from any integer type (size_t
/// loop counters included) works without narrowing diagnostics.
struct SpanArg {
  const char* key = nullptr;
  int64_t value = 0;

  SpanArg() = default;
  template <typename T>
  SpanArg(const char* k, T v) : key(k), value(static_cast<int64_t>(v)) {}
};

namespace internal {

constexpr size_t kMaxSpanArgs = 3;

/// Records a completed span into the calling thread's ring buffer.
void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                uint32_t depth, const SpanArg* args, uint32_t nargs);

}  // namespace internal

/// RAII scope over [construction, destruction): a trace span when
/// tracing was on at construction, an observation of `series` when
/// timings were. Use via GELC_OBS_SCOPE; construct one directly only to
/// call SetArg. Scopes on one thread must close in reverse opening
/// order, which block scoping guarantees.
class Scope {
 public:
  explicit Scope(LatencyHistogram* series,
                 std::initializer_list<SpanArg> args = {})
      : traced_(TraceEnabled()), timed_(TimingsEnabled()) {
    if (traced_ || timed_) Open(series, args);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (traced_ || timed_) Close();
  }

  /// Attaches/overwrites a span argument before the scope closes (for
  /// values only known at the end, e.g. colors after a WL round).
  /// Silently drops args past the kMaxSpanArgs fixed capacity.
  void SetArg(const char* key, int64_t value);

 private:
  void Open(LatencyHistogram* series, std::initializer_list<SpanArg> args);
  void Close();

  const bool traced_;
  const bool timed_;
  uint32_t depth_ = 0;
  uint32_t nargs_ = 0;
  LatencyHistogram* series_ = nullptr;
  Scope* parent_ = nullptr;  // the scope open around this one, if any
  int64_t start_ns_ = 0;
  int64_t children_ns_ = 0;  // inclusive ns of the closed direct children
  SpanArg args_[internal::kMaxSpanArgs];
};

/// All buffered spans as Chrome tracing JSON ({"traceEvents": [...]}).
/// Call when no spans are in flight on other threads (after ParallelFor
/// joins); timestamps are relative to the first buffered span.
std::string TraceJson();

/// Writes TraceJson() to `path`.
Status WriteTrace(const std::string& path);

/// Merged call tree across threads: one line per distinct span path with
/// call count, inclusive ms, exclusive ms (inclusive minus direct
/// children). Paths print in lexicographic order, children indented.
std::string TraceSummaryText();

/// Number of spans currently buffered across all threads (drops from
/// ring-buffer wraparound excluded).
size_t TraceEventCount();

/// Clears every thread's ring buffer (tests; spans must not be in
/// flight elsewhere).
void ResetTraceForTest();

}  // namespace obs
}  // namespace gelc

#define GELC_OBS_CONCAT_INNER_(a, b) a##b
#define GELC_OBS_CONCAT_(a, b) GELC_OBS_CONCAT_INNER_(a, b)

/// GELC_OBS_SCOPE("name") or GELC_OBS_SCOPE("name", {{"key", v}, ...}):
/// a Scope over the rest of the enclosing block, observing the series
/// registered under "name" (looked up once, cached in a function-local
/// static).
#define GELC_OBS_SCOPE(name, ...)                                         \
  static ::gelc::obs::LatencyHistogram* const GELC_OBS_CONCAT_(          \
      gelc_obs_series_, __LINE__) = ::gelc::obs::GetLatencyHistogram(name); \
  ::gelc::obs::Scope GELC_OBS_CONCAT_(gelc_obs_scope_, __LINE__)(         \
      GELC_OBS_CONCAT_(gelc_obs_series_, __LINE__) __VA_OPT__(, ) __VA_ARGS__)

#endif  // GELC_OBS_TRACE_H_
