// Spans recorded by the benchmark around each call into a library layer.
//
// The tracer keeps every span of a pass in memory (name, begin, end,
// parent) and the benchmark folds them into per-layer self times when the
// pass ends. Spans are opened only from the benchmark's own code, never
// inside the library, so a disabled tracer costs one branch per call site
// and the untraced passes run the library exactly as a user would.
#ifndef GELC_E2E_TRACE_H_
#define GELC_E2E_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gelc::e2e {

/// The layers a span can be attributed to. kOp is the root of one op; its
/// self time is the op's unattributed share.
enum class Layer : uint8_t {
  kOp,
  kCoreParse,
  kCoreCompile,
  kCoreExec,
  kGnnForward,
  kAutodiffBackward,
  kAutodiffStep,
  kGraphReplay,
  kGraphBatchPack,
  kWlRefine,
};
inline constexpr size_t kNumLayers = 10;

/// "core.exec", "autodiff.step", ...; "op" for the root.
const char* LayerName(Layer layer);

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

struct Span {
  Layer layer = Layer::kOp;
  int32_t parent = -1;  // index into the span list, -1 for a root
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder (the benchmark is one closed-loop
/// caller; library worker threads are never traced).
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(Layer layer);
  /// Closes span `index`, which must be the innermost open span.
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time per layer for each root span (one row per op, in order).
using LayerTimes = std::array<int64_t, kNumLayers>;
struct OpBreakdown {
  int64_t wall_ns = 0;  // the root span's duration
  LayerTimes self_ns{};
  std::array<bool, kNumLayers> entered{};  // layer had a span in this op
};
std::vector<OpBreakdown> BreakdownByOp(const std::vector<Span>& spans);

}  // namespace gelc::e2e

#endif  // GELC_E2E_TRACE_H_
