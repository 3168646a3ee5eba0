// The timing plane: wall-clock latency histograms, kept strictly apart
// from the deterministic metrics registry (see DESIGN.md "Observability"
// — two-plane doctrine).
//
// Each `LatencyHistogram` is one named series. The scopes of obs/trace.h
// feed them: `GELC_OBS_SCOPE("plan_exec")` observes the series named
// "plan_exec" once per scope with its inclusive nanoseconds and its
// exclusive nanoseconds (inclusive minus the scopes nested directly
// inside it on the same thread). Series and trace spans therefore share
// one name per site, and the per-phase grouping (the prefix before the
// first '.') is the same in both exporters.
//
// Design contract:
//  - Off by default (`GELC_TIMINGS=1` enables); with timings off a scope
//    costs one relaxed atomic load here and no clock read.
//  - Buckets are log-spaced (powers of two, four linear steps per
//    octave) from 1ns to 2^36 ns (~68.7s) in one constexpr table, so
//    p50/p90/p99 extraction is within 25% of the true quantile
//    everywhere, with linear interpolation tighter in practice.
//  - Observes are thread-sharded like Counter: each of the kShards
//    shards owns its own bucket array and a thread picks its shard by
//    the same thread-local id, so pool workers never bounce a cache
//    line. Reads merge the shards.
//  - Latency values NEVER enter the deterministic registry or its
//    byte-equality goldens: snapshots carry them in a separate
//    `timings` section that is omitted when empty and explicitly
//    excluded from the deterministic-plane comparisons
//    (`gelc_stats --deterministic`, scripts/check.sh).
//  - The registry is never destroyed, so the exit exporter can read it
//    whenever static destruction runs.
//
// This file reads no clock; obs/trace.cc is the one TU outside bench/
// that does (the `adhoc-timing` lint rule enforces it).
#ifndef GELC_OBS_TIMING_H_
#define GELC_OBS_TIMING_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"  // internal::ThisThreadShard / kShards

namespace gelc {
namespace obs {

/// A log-spaced-bucket histogram over nanosecond latencies, sharded per
/// thread. Unlike obs::Histogram the bounds are fixed by the class (one
/// shared log-spaced table), because every latency series needs the same
/// dynamic range and snapshots only carry the derived percentiles.
class LatencyHistogram {
 public:
  /// Bound count: 1..4 exactly, then four linear steps per power-of-two
  /// octave from 4 up to 2^36 ns.
  static constexpr size_t kNumBounds = 4 + 4 * 34;
  /// Bucket count including the underflow (index 0) and overflow (last)
  /// buckets.
  static constexpr size_t kNumBuckets = kNumBounds + 1;

  explicit LatencyHistogram(std::string name) : name_(std::move(name)) {}
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one scope: `ns` (inclusive) lands in a bucket and the sum,
  /// `exclusive_ns` in the exclusive sum. Values < 1 land in the
  /// underflow bucket and add 0 to the sums; values past the last bound
  /// land in the overflow bucket. No-op when TimingsEnabled() is false.
  void Observe(int64_t ns, int64_t exclusive_ns);

  const std::string& name() const { return name_; }

  /// Per-bucket counts merged across shards; kNumBuckets entries.
  std::vector<uint64_t> Counts() const;
  /// Merged total observation count.
  uint64_t TotalCount() const;
  /// Merged sum of observed inclusive nanoseconds.
  int64_t SumNs() const;
  /// Merged sum of observed exclusive nanoseconds.
  int64_t ExclusiveSumNs() const;

  /// Zeroes every shard (tests / ResetTimingsForTest only).
  void Reset();

  // --- shared bucket geometry (static; one table for every series) ---

  /// The strictly ascending inclusive upper bounds, in ns. Bucket i
  /// counts v <= bounds[i] (and > bounds[i-1]); the overflow bucket past
  /// the last bound has no upper bound.
  static const std::array<int64_t, kNumBounds>& BucketBounds();
  /// Index of the bucket an observation of `ns` lands in.
  static size_t BucketIndex(int64_t ns);

  /// Quantile q in [0, 1] extracted from merged bucket counts by linear
  /// interpolation inside the landing bucket, in ns. Returns 0 when the
  /// histogram is empty and at most the last bound. Deterministic given
  /// the counts.
  static double QuantileNs(const std::vector<uint64_t>& counts, double q);

 private:
  // A thread writes only its own shard (same thread-local shard id as
  // Counter), so the alignas keeps two shards' hot heads off a shared
  // cache line.
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> counts{};
    std::atomic<int64_t> sum_ns{0};
    std::atomic<int64_t> exclusive_ns{0};
  };
  std::array<Shard, internal::kShards> shards_;
  std::string name_;
};

/// Derived percentile view of one latency series. Snapshots carry every
/// field but `exclusive_ns`, which only the summary text prints.
struct LatencySample {
  std::string name;
  uint64_t count = 0;
  int64_t sum_ns = 0;
  int64_t exclusive_ns = 0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

/// Returns the process-wide latency histogram with this name,
/// registering it on first use. Handles are never invalidated; call
/// sites cache them in a function-local static (GELC_OBS_SCOPE does).
LatencyHistogram* GetLatencyHistogram(const std::string& name);

/// Every latency series with at least one observation, sorted by name,
/// with p50/p90/p99 extracted from the merged buckets.
std::vector<LatencySample> TimingSnapshot();

/// Total observations across every registered series (cheap "anything
/// recorded?" check for the exit exporter).
uint64_t TimingObservationCount();

/// Human-readable table: one line per series (count, p50/p90/p99 ms,
/// total and exclusive ms), then a per-phase rollup of exclusive ms,
/// where a series' phase is its name up to the first '.'
/// ("train.epoch" -> "train"). Exclusive time counts each nanosecond
/// once, so the rollup sums to the time spent inside outermost scopes,
/// added up over threads. The exit exporter prints this to stderr when
/// GELC_TIMINGS was on.
std::string TimingSummaryText();

/// Zeroes every registered series (registrations and handles survive).
void ResetTimingsForTest();

}  // namespace obs
}  // namespace gelc

#endif  // GELC_OBS_TIMING_H_
