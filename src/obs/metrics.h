// The metrics registry: named counters, gauges, and fixed-bucket
// histograms (see DESIGN.md "Observability").
//
// Design contract:
//  - Hot-path increments are uncontended: each Counter is split into
//    cache-line-sized shards and a thread picks its shard by a
//    thread-local id, so two pool workers never bounce the same line.
//    Reads merge the shards.
//  - Handles returned by GetCounter/GetGauge/GetHistogram are stable for
//    the life of the process — call sites cache them in a function-local
//    static and pay one pointer load per record.
//  - When MetricsEnabled() is false every record call is a no-op (one
//    relaxed atomic load), and the instrumented algorithms are
//    bit-identical either way: metrics never feed back into computation.
//  - Values are deterministic by construction: the registry holds counts,
//    sizes, and losses — never wall-clock durations (those belong to the
//    scopes of obs/trace.h and the timing plane, obs/timing.h). Two
//    identical runs therefore produce byte-identical snapshots
//    (obs/snapshot.h).
//  - The registry is never destroyed, so the exit exporter can read it
//    whenever static destruction runs.
#ifndef GELC_OBS_METRICS_H_
#define GELC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/config.h"

namespace gelc {
namespace obs {

namespace internal {
/// Shard index of the calling thread (stable per thread, < kShards).
size_t ThisThreadShard();
constexpr size_t kShards = 16;
}  // namespace internal

/// A monotonically increasing sum, sharded per thread.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[internal::ThisThreadShard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Merged total across all shards.
  uint64_t Read() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  const std::string& name() const { return name_; }

  /// Zeroes every shard (tests / ResetMetricsForTest only).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, internal::kShards> shards_;
  std::string name_;
};

/// A last-write-wins instantaneous value (e.g. current loss, partition
/// size). Set is rare, so a single atomic slot suffices.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
    sets_.fetch_add(1, std::memory_order_release);
  }

  double Read() const { return value_.load(std::memory_order_relaxed); }
  /// False until the first Set; unset gauges are omitted from snapshots.
  bool ever_set() const { return sets_.load(std::memory_order_acquire) > 0; }
  const std::string& name() const { return name_; }

  void Reset() {
    sets_.store(0, std::memory_order_relaxed);
    value_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<uint64_t> sets_{0};
  std::string name_;
};

/// A fixed-bucket histogram over int64 observations. Bucket i counts
/// observations v with v <= bounds[i] (and > bounds[i-1]); one overflow
/// bucket past the last bound. Bounds are fixed at registration.
class Histogram {
 public:
  Histogram(std::string name, std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  const std::string& name() const { return name_; }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<uint64_t> Counts() const;
  uint64_t TotalCount() const {
    return total_.load(std::memory_order_relaxed);
  }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::vector<int64_t> bounds_;  // strictly ascending
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> total_{0};
  std::atomic<int64_t> sum_{0};
  std::string name_;
};

/// Returns the process-wide metric with this name, registering it on
/// first use. Handles are never invalidated; cache them in a static.
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
/// `bounds` must be strictly ascending; a later call with the same name
/// returns the existing histogram (its original bounds win).
Histogram* GetHistogram(const std::string& name,
                        const std::vector<int64_t>& bounds);

/// Current value of a counter by name, 0 when it was never registered.
/// Benches read deltas around their timed loops with this.
uint64_t ReadCounter(const std::string& name);

/// Zeroes every registered metric (registrations and handles survive, so
/// cached call-site pointers stay valid). Tests and gelc_stats use this
/// to start from a clean slate.
void ResetMetricsForTest();

namespace internal {
/// Snapshot support: visits metrics in name order under the registry
/// lock. Declared here so snapshot.cc does not reach into the registry.
void VisitMetrics(const std::function<void(const Counter&)>& on_counter,
                  const std::function<void(const Gauge&)>& on_gauge,
                  const std::function<void(const Histogram&)>& on_histogram);
}  // namespace internal

}  // namespace obs
}  // namespace gelc

#endif  // GELC_OBS_METRICS_H_
