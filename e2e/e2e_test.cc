// Tests of the benchmark's own statistics and a tiny-size smoke run of
// every workload through the real runner.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench.h"
#include "heap.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace gelc::e2e {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.5), 1);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileTest, TailLeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(TailPercentile(10), 0.0);  // too few samples for any tail
  for (size_t n = 11; n <= 3000; ++n) {
    const double p = TailPercentile(n);
    ASSERT_EQ(SamplesBeyond(n, p), kMinSamplesBeyond) << n;
    // The next sample up the order would leave only nine beyond.
    const double higher = 100.0 * static_cast<double>(n - 9) /
                          static_cast<double>(n);
    ASSERT_LT(SamplesBeyond(n, higher), kMinSamplesBeyond) << n;
  }
}

TEST(RatioTest, KeepsItsBase) {
  const Ratio half{1, 2};
  const Ratio big{500, 1000};
  EXPECT_EQ(half.value(), big.value());
  EXPECT_NE(half.den, big.den);
  EXPECT_EQ((Ratio{3, 0}.value()), 0.0);
}

Span MakeSpan(Layer layer, int32_t parent, int64_t begin, int64_t end) {
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.begin_ns = begin;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SpanMinusChildCover) {
  // op [0,100) > exec [10,40) > parse [20,30); op > compile [45,60).
  const std::vector<Span> spans = {
      MakeSpan(Layer::kOp, -1, 0, 100),
      MakeSpan(Layer::kCoreExec, 0, 10, 40),
      MakeSpan(Layer::kCoreParse, 1, 20, 30),
      MakeSpan(Layer::kCoreCompile, 0, 45, 60),
      MakeSpan(Layer::kOp, -1, 200, 210),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{55, 20, 10, 15, 10}));

  const std::vector<OpBreakdown> ops = BreakdownByOp(spans);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].wall_ns, 100);
  int64_t sum = 0;
  for (int64_t t : ops[0].self_ns) sum += t;
  EXPECT_EQ(sum, ops[0].wall_ns);  // self times partition the op
  EXPECT_EQ(ops[0].self_ns[static_cast<size_t>(Layer::kCoreExec)], 20);
  EXPECT_TRUE(ops[0].entered[static_cast<size_t>(Layer::kCoreParse)]);
  EXPECT_FALSE(ops[1].entered[static_cast<size_t>(Layer::kCoreExec)]);
  EXPECT_EQ(ops[1].self_ns[static_cast<size_t>(Layer::kOp)], 10);
}

TEST(SelfTimeTest, OverlappingChildrenCoverOnce) {
  const std::vector<Span> spans = {
      MakeSpan(Layer::kOp, -1, 0, 100),
      MakeSpan(Layer::kCoreExec, 0, 10, 40),
      MakeSpan(Layer::kCoreCompile, 0, 35, 60),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{50, 30, 25}));
}

TEST(TracerTest, ScopedSpansNest) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan op(&tracer, Layer::kOp);
    ScopedSpan exec(&tracer, Layer::kCoreExec);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  tracer.set_enabled(false);
  { ScopedSpan ignored(&tracer, Layer::kOp); }
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(HeapCountTest, CountsOnlyInsideTheWindow) {
  constexpr size_t kOutside = size_t{1} << 20;
  constexpr size_t kInside = size_t{1} << 16;
  // Volatile pointers keep the compiler from eliding the allocations.
  char* volatile outside = new char[kOutside];
  StartHeapCount();
  char* volatile inside = new char[kInside];
  delete[] inside;
  delete[] outside;  // allocated before the window: counts as negative
  const size_t peak = StopHeapCount();
  EXPECT_GE(peak, kInside);
  EXPECT_LT(peak, kOutside);
}

class SmokeTest : public ::testing::TestWithParam<std::string> {
 protected:
  RunReport Run(bool trace) {
    RunOptions options;
    options.workload = GetParam();
    options.seed = 3;
    options.seconds = 0.05;
    options.trace = trace;
    options.sizes = Sizes::Tiny();
    Result<RunReport> report = RunBenchmark(options);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *report : RunReport();
  }
};

TEST_P(SmokeTest, EndToEndPassesEveryCheck) {
  const RunReport report = Run(false);
  EXPECT_TRUE(report.correct());
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(report.metrics.size(), EndToEndMetricNames().size());
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    EXPECT_EQ(report.metrics[i].name, EndToEndMetricNames()[i]);
    EXPECT_GT(report.metrics[i].value, 0.0) << report.metrics[i].name;
  }
}

TEST_P(SmokeTest, SharesSumToOne) {
  const RunReport report = Run(true);
  EXPECT_TRUE(report.correct());
  ASSERT_EQ(report.metrics.size(), PerLayerMetricNames().size());
  double shares = 0.0;
  for (const Metric& m : report.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    const std::string suffix = ".share";
    if (m.name.size() > suffix.size() &&
        m.name.compare(m.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      EXPECT_GE(m.value, 0.0) << m.name;
      shares += m.value;
    }
    if (m.name.find("ratio") != std::string::npos) {
      EXPECT_NE(m.note.find('/'), std::string::npos) << m.name;
    }
  }
  EXPECT_NEAR(shares, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(MakeWorkloadTest, UnknownNameIsAnError) {
  RunOptions options;
  options.workload = "nope";
  EXPECT_FALSE(RunBenchmark(options).ok());
}

}  // namespace
}  // namespace gelc::e2e
