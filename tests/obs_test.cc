// Tests for the observability library (src/obs): sharded counter
// correctness under the pool, gauge/histogram semantics, snapshot JSON
// (including a byte-exact golden), scope nesting into spans and latency
// series, the exclusive-time math of both summaries, and the
// disabled-mode no-op contract.
//
// The registry is process-global, so every test either uses metric names
// unique to itself or resets the registry first; the pool workers spawned
// by ParallelFor are the "N threads" of the concurrency tests.
#include "obs/metrics.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "obs/config.h"
#include "obs/snapshot.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace gelc {
namespace {

struct ScopedThreads {
  explicit ScopedThreads(size_t n) { SetParallelThreadCount(n); }
  ~ScopedThreads() { SetParallelThreadCount(0); }
};

// Forces metrics on for the test body, restoring the env-derived flags
// after (the suite must pass under any GELC_METRICS setting).
struct ScopedMetricsOn {
  ScopedMetricsOn() { obs::SetMetricsEnabled(true); }
  ~ScopedMetricsOn() { obs::ResetEnabledFromEnv(); }
};

// Forces the timing plane on for the test body, then zeroes it and
// restores the env-derived flags — so later tests (in particular the
// byte-exact snapshot goldens) never see a stray timings section.
struct ScopedTimingsOn {
  ScopedTimingsOn() { obs::SetTimingsEnabled(true); }
  ~ScopedTimingsOn() {
    obs::ResetTimingsForTest();
    obs::ResetEnabledFromEnv();
  }
};

TEST(CounterTest, ConcurrentAddsMergeExactly) {
  ScopedMetricsOn metrics_on;
  ScopedThreads threads(4);
  obs::Counter* c = obs::GetCounter("test.counter.concurrent");
  const uint64_t before = c->Read();
  constexpr size_t kPerShardAdds = 50000;
  // Four shards hammer the same counter; thread-local sharding means the
  // merged total is exact, not approximate.
  ParallelFor(0, 4 * kPerShardAdds, kPerShardAdds,
              [c](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) c->Increment();
              });
  EXPECT_EQ(c->Read(), before + 4 * kPerShardAdds);
}

TEST(CounterTest, HandleIsStableAndNamed) {
  obs::Counter* a = obs::GetCounter("test.counter.stable");
  obs::Counter* b = obs::GetCounter("test.counter.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.counter.stable");
}

TEST(CounterTest, ReadCounterByNameAndUnknownIsZero) {
  ScopedMetricsOn metrics_on;
  obs::GetCounter("test.counter.byname")->Add(5);
  EXPECT_GE(obs::ReadCounter("test.counter.byname"), 5u);
  EXPECT_EQ(obs::ReadCounter("test.counter.never_registered"), 0u);
}

TEST(GaugeTest, SetReadAndEverSet) {
  ScopedMetricsOn metrics_on;
  obs::Gauge* g = obs::GetGauge("test.gauge.basic");
  EXPECT_FALSE(g->ever_set());
  g->Set(2.5);
  EXPECT_TRUE(g->ever_set());
  EXPECT_EQ(g->Read(), 2.5);
  g->Set(-1.0);  // last write wins
  EXPECT_EQ(g->Read(), -1.0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  ScopedMetricsOn metrics_on;
  obs::Histogram* h = obs::GetHistogram("test.hist.edges", {1, 2, 4});
  // Bucket i counts v <= bounds[i]: 0,1 -> [<=1]; 2 -> (1,2]; 3,4 -> (2,4];
  // 5 overflows.
  for (int64_t v : {0, 1, 2, 3, 4, 5}) h->Observe(v);
  std::vector<uint64_t> counts = h->Counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);  // overflow bucket
  EXPECT_EQ(h->TotalCount(), 6u);
  EXPECT_EQ(h->Sum(), 15);
  EXPECT_EQ(h->bounds(), (std::vector<int64_t>{1, 2, 4}));
}

TEST(HistogramTest, SameNameReturnsSameHistogram) {
  obs::Histogram* a = obs::GetHistogram("test.hist.dup", {1, 2});
  obs::Histogram* b = obs::GetHistogram("test.hist.dup", {7, 8, 9});
  EXPECT_EQ(a, b);  // original bounds win
  EXPECT_EQ(a->bounds(), (std::vector<int64_t>{1, 2}));
}

TEST(DisabledModeTest, RecordsAreNoOps) {
  obs::SetMetricsEnabled(false);
  obs::Counter* c = obs::GetCounter("test.disabled.counter");
  obs::Gauge* g = obs::GetGauge("test.disabled.gauge");
  obs::Histogram* h = obs::GetHistogram("test.disabled.hist", {10});
  const uint64_t c_before = c->Read();
  c->Add(100);
  g->Set(3.0);
  h->Observe(5);
  EXPECT_EQ(c->Read(), c_before);
  EXPECT_FALSE(g->ever_set());
  EXPECT_EQ(h->TotalCount(), 0u);
  obs::ResetEnabledFromEnv();
}

TEST(DisabledModeTest, ScopesAreNoOps) {
  obs::SetTraceEnabled(false);
  obs::SetTimingsEnabled(false);
  const size_t before = obs::TraceEventCount();
  {
    GELC_OBS_SCOPE("test.disabled.scope", {{"x", 1}});
  }
  EXPECT_EQ(obs::TraceEventCount(), before);
  EXPECT_EQ(obs::GetLatencyHistogram("test.disabled.scope")->TotalCount(), 0u);
  obs::ResetEnabledFromEnv();
}

TEST(TraceTest, ScopeRecordsNameArgsAndNesting) {
  obs::ResetTraceForTest();
  obs::SetTraceEnabled(true);
  {
    GELC_OBS_SCOPE("test.outer", {{"x", 7}});
    { GELC_OBS_SCOPE("test.inner"); }
  }
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  std::string json = obs::TraceJson();
  EXPECT_NE(json.find("\"name\": \"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"x\": 7}"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The summary reconstructs nesting from depths: inner indents under
  // outer.
  std::string summary = obs::TraceSummaryText();
  EXPECT_NE(summary.find("test.outer"), std::string::npos);
  EXPECT_NE(summary.find("  test.inner"), std::string::npos);
  obs::ResetTraceForTest();
}

TEST(TraceTest, SetArgAttachesAndOverwrites) {
  obs::ResetTraceForTest();
  obs::SetTraceEnabled(true);
  {
    obs::Scope span(obs::GetLatencyHistogram("test.setarg"), {{"colors", 0}});
    span.SetArg("colors", 42);       // overwrite by key
    span.SetArg("extra", 9);         // append
  }
  obs::SetTraceEnabled(false);
  std::string json = obs::TraceJson();
  EXPECT_NE(json.find("\"colors\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"extra\": 9"), std::string::npos);
  EXPECT_EQ(json.find("\"colors\": 0"), std::string::npos);
  obs::ResetTraceForTest();
}

TEST(TraceTest, SummaryExclusiveTimeSubtractsDirectChildren) {
  obs::ResetTraceForTest();
  // Synthetic events with exact nanosecond durations (RecordSpan is the
  // layer under Scope, so the math is tested deterministically).
  // Ring buffers record in end order: children complete first.
  obs::internal::RecordSpan("child", 1'000'000, 3'000'000, 1, nullptr, 0);
  obs::internal::RecordSpan("root", 0, 5'000'000, 0, nullptr, 0);
  std::string summary = obs::TraceSummaryText();
  // root: inclusive 5ms, exclusive 5-2=3ms. child: 2ms both.
  EXPECT_NE(summary.find("5.000"), std::string::npos);
  EXPECT_NE(summary.find("3.000"), std::string::npos);
  EXPECT_NE(summary.find("2.000"), std::string::npos);
  EXPECT_NE(summary.find("  child"), std::string::npos);
  obs::ResetTraceForTest();
}

TEST(TraceTest, SummarySiblingsDoNotNestUnderEachOther) {
  obs::ResetTraceForTest();
  obs::internal::RecordSpan("first", 0, 1'000'000, 0, nullptr, 0);
  obs::internal::RecordSpan("second", 2'000'000, 3'000'000, 0, nullptr, 0);
  std::string summary = obs::TraceSummaryText();
  EXPECT_NE(summary.find("first"), std::string::npos);
  EXPECT_NE(summary.find("second"), std::string::npos);
  EXPECT_EQ(summary.find("  second"), std::string::npos);  // not indented
  obs::ResetTraceForTest();
}

TEST(SnapshotTest, OmitsUntouchedMetrics) {
  ScopedMetricsOn metrics_on;
  obs::ResetMetricsForTest();
  obs::GetCounter("test.snapshot.zero");          // registered, never added
  obs::GetGauge("test.snapshot.unset");           // registered, never set
  obs::GetHistogram("test.snapshot.empty", {1});  // registered, no samples
  EXPECT_EQ(obs::SnapshotJson(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
}

TEST(SnapshotTest, JsonGoldenByteExact) {
  ScopedMetricsOn metrics_on;
  obs::ResetMetricsForTest();
  obs::GetCounter("golden.b")->Add(3);
  obs::GetCounter("golden.a")->Add(1);  // name-sorted, not insertion order
  obs::GetGauge("golden.g")->Set(1.5);
  obs::Histogram* h = obs::GetHistogram("golden.h", {1, 2});
  h->Observe(2);
  h->Observe(40);
  EXPECT_EQ(
      obs::SnapshotJson(),
      "{\"counters\": {\"golden.a\": 1, \"golden.b\": 3}, "
      "\"gauges\": {\"golden.g\": 1.5}, "
      "\"histograms\": {\"golden.h\": {\"bounds\": [1, 2], "
      "\"counts\": [0, 1, 1], \"total\": 2, \"sum\": 42}}}");
}

TEST(SnapshotTest, StructViewMatchesRecords) {
  ScopedMetricsOn metrics_on;
  obs::ResetMetricsForTest();
  obs::GetCounter("test.struct.c")->Add(7);
  obs::GetGauge("test.struct.g")->Set(0.25);
  obs::StatsSnapshot snap = obs::Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "test.struct.c");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "test.struct.g");
  EXPECT_EQ(snap.gauges[0].value, 0.25);
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(InstrumentationTest, ParallelForCountsCallsAndShards) {
  ScopedMetricsOn metrics_on;
  ScopedThreads threads(4);
  const uint64_t calls = obs::ReadCounter("parallel.calls");
  const uint64_t scheduled = obs::ReadCounter("parallel.tasks_scheduled");
  ParallelFor(0, 4000, 1, [](size_t, size_t) {});
  EXPECT_EQ(obs::ReadCounter("parallel.calls"), calls + 1);
  // 4 shards -> 3 tasks handed to the pool (shard 0 runs inline).
  EXPECT_EQ(obs::ReadCounter("parallel.tasks_scheduled"), scheduled + 3);
}

TEST(InstrumentationTest, SerialParallelForCountsAsSerial) {
  ScopedMetricsOn metrics_on;
  ScopedThreads threads(1);
  const uint64_t serial = obs::ReadCounter("parallel.serial_calls");
  ParallelFor(0, 100, 1, [](size_t, size_t) {});
  EXPECT_EQ(obs::ReadCounter("parallel.serial_calls"), serial + 1);
}

// --------------------------------------------------------------------------
// Deterministic-plane histogram edge behavior (ISSUE 9 satellite).
// --------------------------------------------------------------------------

TEST(HistogramTest, UnderflowOverflowAndExactBoundLandings) {
  ScopedMetricsOn metrics_on;
  obs::Histogram* h =
      obs::GetHistogram("test.hist.extreme_edges", {0, 10, 100});
  // Negative and zero both land in the first bucket (v <= 0).
  h->Observe(-5);
  h->Observe(0);
  // Exact bounds land in their own bucket (inclusive upper edge)...
  h->Observe(10);
  h->Observe(100);
  // ...and one past the last bound overflows, as does INT64_MAX.
  h->Observe(101);
  h->Observe(std::numeric_limits<int64_t>::max());
  std::vector<uint64_t> counts = h->Counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h->TotalCount(), 6u);
}

// --------------------------------------------------------------------------
// Snapshot JSON escaping (ISSUE 9 satellite). A hand-built snapshot keeps
// the process-global registry clean of weird names.
// --------------------------------------------------------------------------

TEST(SnapshotTest, JsonEscapesQuotesAndBackslashesInNames) {
  obs::StatsSnapshot snap;
  snap.counters.push_back({"evil\"name", 1});
  snap.counters.push_back({"back\\slash", 2});
  snap.gauges.push_back({"tab\there", 0.5});
  EXPECT_EQ(obs::SnapshotJson(snap),
            "{\"counters\": {\"evil\\\"name\": 1, \"back\\\\slash\": 2}, "
            "\"gauges\": {\"tab\\there\": 0.5}, \"histograms\": {}}");
}

TEST(SnapshotTest, TimingsKeyOmittedWhenEmptyAndEscaped) {
  obs::StatsSnapshot snap;
  EXPECT_EQ(obs::SnapshotJson(snap),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
  obs::LatencySample t;
  t.name = "timer\"q";
  t.count = 2;
  t.sum_ns = 10;
  t.p50_ns = 4.0;
  t.p90_ns = 5.0;
  t.p99_ns = 5.0;
  snap.timings.push_back(t);
  EXPECT_EQ(obs::SnapshotJson(snap),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}, "
            "\"timings\": {\"timer\\\"q\": {\"count\": 2, \"sum_ns\": 10, "
            "\"p50_ns\": 4, \"p90_ns\": 5, \"p99_ns\": 5}}}");
}

// --------------------------------------------------------------------------
// Timing plane: latency histogram bucket geometry, quantiles, sharded
// concurrency, scopes feeding both planes with exclusive time, and the
// two-plane separation contract.
// --------------------------------------------------------------------------

TEST(LatencyHistogramTest, BucketGeometry) {
  const auto& bounds = obs::LatencyHistogram::BucketBounds();
  // Strictly ascending, starting 1,2,3,4,5,... ending at 2^36 ns.
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_EQ(bounds[0], 1);
  EXPECT_EQ(bounds.back(), int64_t{1} << 36);
  EXPECT_EQ(obs::LatencyHistogram::kNumBuckets, bounds.size() + 1);
  // Log-spaced: relative step stays <= 25% past the exact range.
  for (size_t i = 4; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i] - bounds[i - 1], (bounds[i - 1] + 3) / 4)
        << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, BucketIndexEdges) {
  using LH = obs::LatencyHistogram;
  const auto& bounds = LH::BucketBounds();
  // Underflow: negatives and 0 share the first bucket with 1.
  EXPECT_EQ(LH::BucketIndex(-7), 0u);
  EXPECT_EQ(LH::BucketIndex(0), 0u);
  EXPECT_EQ(LH::BucketIndex(1), 0u);
  // Exact bound lands in its own bucket; one past moves up.
  EXPECT_EQ(LH::BucketIndex(4), 3u);
  EXPECT_EQ(LH::BucketIndex(5), 4u);
  // 9 is between bounds 8 and 10.
  EXPECT_EQ(bounds[7], 8);
  EXPECT_EQ(bounds[8], 10);
  EXPECT_EQ(LH::BucketIndex(9), 8u);
  // The last bound is inclusive; past it is the overflow bucket.
  EXPECT_EQ(LH::BucketIndex(bounds.back()), bounds.size() - 1);
  EXPECT_EQ(LH::BucketIndex(bounds.back() + 1), bounds.size());
  EXPECT_EQ(LH::BucketIndex(std::numeric_limits<int64_t>::max()),
            bounds.size());
}

TEST(LatencyHistogramTest, QuantileInterpolatesWithinLandingBucket) {
  using LH = obs::LatencyHistogram;
  std::vector<uint64_t> counts(LH::kNumBuckets, 0);
  EXPECT_EQ(LH::QuantileNs(counts, 0.5), 0.0);  // empty
  // All mass in the (8, 10] bucket: every quantile stays inside it.
  counts[LH::BucketIndex(9)] = 100;
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    double v = LH::QuantileNs(counts, q);
    EXPECT_GT(v, 8.0) << q;
    EXPECT_LE(v, 10.0) << q;
  }
  // Mass split across two buckets: the median falls in the first, the
  // p99 in the second.
  std::vector<uint64_t> split(LH::kNumBuckets, 0);
  split[LH::BucketIndex(2)] = 60;
  split[LH::BucketIndex(100)] = 40;
  EXPECT_LE(LH::QuantileNs(split, 0.5), 2.0);
  // 100 lands in the (96, 112] bucket; the p99 interpolates inside it.
  double p99 = LH::QuantileNs(split, 0.99);
  EXPECT_GT(p99, 96.0);
  EXPECT_LE(p99, 112.0);
  // Overflow-only mass reports the last bound (no upper edge to lerp to).
  std::vector<uint64_t> over(LH::kNumBuckets, 0);
  over[LH::kNumBuckets - 1] = 10;
  EXPECT_EQ(LH::QuantileNs(over, 0.5),
            static_cast<double>(LH::BucketBounds().back()));
}

TEST(LatencyHistogramTest, DisabledObserveIsANoOp) {
  obs::SetTimingsEnabled(false);
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("test.lat.disabled");
  h->Observe(100, 100);
  EXPECT_EQ(h->TotalCount(), 0u);
  EXPECT_EQ(h->SumNs(), 0);
  obs::ResetEnabledFromEnv();
}

TEST(LatencyHistogramTest, ObserveRecordsAndNegativeClampsSum) {
  ScopedTimingsOn timings_on;
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("test.lat.basic");
  h->Observe(9, 9);
  h->Observe(9, 5);
  h->Observe(-3, -3);  // lands in bucket 0; the sums clamp negatives to 0
  EXPECT_EQ(h->TotalCount(), 3u);
  EXPECT_EQ(h->SumNs(), 18);
  EXPECT_EQ(h->ExclusiveSumNs(), 14);
  std::vector<uint64_t> counts = h->Counts();
  EXPECT_EQ(counts[obs::LatencyHistogram::BucketIndex(9)], 2u);
  EXPECT_EQ(counts[0], 1u);
  h->Reset();
  EXPECT_EQ(h->TotalCount(), 0u);
  EXPECT_EQ(h->SumNs(), 0);
  EXPECT_EQ(h->ExclusiveSumNs(), 0);
}

TEST(LatencyHistogramTest, ShardedObservesMergeExactlyUnderPool) {
  ScopedTimingsOn timings_on;
  ScopedThreads threads(4);
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("test.lat.sharded");
  constexpr size_t kPerShard = 20000;
  ParallelFor(0, 4 * kPerShard, kPerShard, [h](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      h->Observe(static_cast<int64_t>(i % 64), static_cast<int64_t>(i % 64));
    }
  });
  EXPECT_EQ(h->TotalCount(), 4 * kPerShard);
}

TEST(ScopeTest, MacroRecordsOneObservationPerScope) {
  ScopedTimingsOn timings_on;
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("test.lat.scoped");
  const uint64_t before = h->TotalCount();
  for (int i = 0; i < 3; ++i) {
    GELC_OBS_SCOPE("test.lat.scoped");
  }
  EXPECT_EQ(h->TotalCount(), before + 3);
  EXPECT_GE(h->SumNs(), 0);
}

TEST(ScopeTest, OneSiteFeedsTraceAndTiming) {
  ScopedTimingsOn timings_on;
  obs::SetTraceEnabled(true);
  obs::ResetTraceForTest();
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("test.both");
  { GELC_OBS_SCOPE("test.both", {{"x", 3}}); }
  obs::SetTraceEnabled(false);
  EXPECT_EQ(h->TotalCount(), 1u);
  EXPECT_EQ(obs::TraceEventCount(), 1u);
  EXPECT_NE(obs::TraceJson().find("\"name\": \"test.both\""),
            std::string::npos);
  obs::ResetTraceForTest();
  obs::ResetEnabledFromEnv();
}

TEST(ScopeTest, ExclusiveSumsEqualOuterInclusive) {
  ScopedTimingsOn timings_on;
  obs::ResetTimingsForTest();
  {
    GELC_OBS_SCOPE("nest.outer");
    for (int i = 0; i < 3; ++i) {
      GELC_OBS_SCOPE("nest.mid");
      { GELC_OBS_SCOPE("nest.leaf"); }
      { GELC_OBS_SCOPE("other.leaf"); }
    }
  }
  // Each nanosecond inside the outer scope is exclusive to exactly one
  // scope, so the exclusive sums over every series telescope to the
  // outer scope's inclusive time.
  int64_t exclusive = 0;
  for (const obs::LatencySample& s : obs::TimingSnapshot()) {
    EXPECT_LE(s.exclusive_ns, s.sum_ns) << s.name;
    exclusive += s.exclusive_ns;
  }
  obs::LatencyHistogram* outer = obs::GetLatencyHistogram("nest.outer");
  ASSERT_EQ(outer->TotalCount(), 1u);
  EXPECT_EQ(exclusive, outer->SumNs());
  EXPECT_EQ(obs::GetLatencyHistogram("nest.leaf")->ExclusiveSumNs(),
            obs::GetLatencyHistogram("nest.leaf")->SumNs());
}

TEST(TimingSnapshotTest, CarriesPercentilesAndSummarizes) {
  ScopedTimingsOn timings_on;
  obs::ResetTimingsForTest();
  obs::LatencyHistogram* h = obs::GetLatencyHistogram("phasea.step");
  for (int i = 0; i < 100; ++i) h->Observe(9, 9);
  std::vector<obs::LatencySample> samples = obs::TimingSnapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "phasea.step");
  EXPECT_EQ(samples[0].count, 100u);
  EXPECT_EQ(samples[0].sum_ns, 900);
  EXPECT_GT(samples[0].p50_ns, 8.0);
  EXPECT_LE(samples[0].p99_ns, 10.0);
  EXPECT_GE(obs::TimingObservationCount(), 100u);
  // The summary mentions the series and its phase rollup.
  std::string summary = obs::TimingSummaryText();
  EXPECT_NE(summary.find("phasea.step"), std::string::npos);
  EXPECT_NE(summary.find("phase rollup (exclusive ms):"), std::string::npos);
  EXPECT_NE(summary.find("  phasea"), std::string::npos);
}

TEST(TimingSnapshotTest, RollupSumsExclusiveTime) {
  ScopedTimingsOn timings_on;
  obs::ResetTimingsForTest();
  // A 5ms outer scope with a 3ms child inside it: the phase took 5ms,
  // not the 8ms the inclusive sums add up to.
  obs::GetLatencyHistogram("phaseb.outer")->Observe(5'000'000, 2'000'000);
  obs::GetLatencyHistogram("phaseb.inner")->Observe(3'000'000, 3'000'000);
  std::string summary = obs::TimingSummaryText();
  std::string rollup = summary.substr(summary.find("phase rollup"));
  EXPECT_NE(rollup.find("  phaseb"), std::string::npos);
  EXPECT_NE(rollup.find("5.000"), std::string::npos);
  EXPECT_EQ(rollup.find("8.000"), std::string::npos);
}

TEST(TimingSnapshotTest, TwoPlaneSeparationIsByteExact) {
  ScopedMetricsOn metrics_on;
  // The same deterministic work with timings ON vs OFF: the snapshot's
  // deterministic sections must not change by a byte. Compare by
  // clearing the timings vector of the "on" snapshot, which is exactly
  // what `gelc_stats --deterministic` does.
  auto run_work = [] {
    obs::ResetMetricsForTest();
    obs::GetCounter("test.plane.calls")->Add(41);
    obs::GetHistogram("test.plane.h", {2, 8})->Observe(5);
  };
  obs::SetTimingsEnabled(false);
  run_work();
  const std::string off_json = obs::SnapshotJson();
  {
    ScopedTimingsOn timings_on;
    run_work();
    {
      GELC_OBS_SCOPE("test.plane.timer");
    }
    obs::StatsSnapshot on_snap = obs::Snapshot();
    EXPECT_FALSE(on_snap.timings.empty());
    // With timings present the JSON differs (a timings key appears)...
    EXPECT_NE(obs::SnapshotJson(on_snap), off_json);
    // ...and stripping the timing plane restores byte equality.
    on_snap.timings.clear();
    EXPECT_EQ(obs::SnapshotJson(on_snap), off_json);
  }
  obs::ResetEnabledFromEnv();
}

}  // namespace
}  // namespace gelc
