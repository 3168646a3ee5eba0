// Tests for the parallel execution layer (base/parallel.h) and the
// determinism contract of the hot paths wired into it: identical bits for
// any thread count.
#include "base/parallel.h"

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "graph/generators.h"
#include "graph/relational.h"
#include "tensor/matrix.h"
#include "wl/color_refinement.h"
#include "wl/kernel.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

// Forces a thread count for one scope, restoring the env/hardware default
// on exit.
struct ScopedThreads {
  explicit ScopedThreads(size_t n) { SetParallelThreadCount(n); }
  ~ScopedThreads() { SetParallelThreadCount(0); }
};

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ScopedThreads threads(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(5, 6, 1, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 5u);
    EXPECT_EQ(end, 6u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, PoolIsReusedAcrossCalls) {
  ScopedThreads threads(4);
  // The pool's own test observes worker identities directly; this is the
  // one sanctioned consumer of raw thread primitives outside base/parallel.
  std::mutex mu;  // NOLINT(raw-thread)
  std::set<std::thread::id> worker_ids GELC_GUARDED_BY(mu);  // NOLINT(raw-thread)
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    ParallelFor(0, 400, 1, [&](size_t begin, size_t end) {
      long local = 0;
      for (size_t i = begin; i < end; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
      if (InParallelWorker()) {
        std::lock_guard<std::mutex> lock(mu);  // NOLINT(raw-thread)
        worker_ids.insert(std::this_thread::get_id());
      }
    });
    EXPECT_EQ(sum.load(), 400L * 399L / 2);
  }
  // 50 invocations at 4 threads reuse the same (at most 3) pool workers
  // rather than spawning threads per call.
  EXPECT_LE(worker_ids.size(), 3u);
}

TEST(ParallelForTest, PropagatesShardException) {
  ScopedThreads threads(4);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [](size_t begin, size_t) {
                             if (begin >= 50) {
                               throw std::runtime_error("shard boom");
                             }
                           }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelForTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  std::atomic<long> total{0};
  ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // An inner loop invoked from a pool worker must not wait on the
      // pool's own queue; it runs inline as one call covering the range.
      bool on_worker = InParallelWorker();
      std::atomic<long> inner{0};
      std::atomic<int> inner_calls{0};
      ParallelFor(0, 100, 1, [&](size_t b, size_t e) {
        inner_calls.fetch_add(1);
        long local = 0;
        for (size_t x = b; x < e; ++x) local += static_cast<long>(x);
        inner.fetch_add(local);
      });
      if (on_worker) {
        EXPECT_EQ(inner_calls.load(), 1);
      }
      total.fetch_add(inner.load());
    }
  });
  EXPECT_EQ(total.load(), 8L * (100L * 99L / 2));
}

TEST(ParallelMapTest, ResultsInIndexOrder) {
  ScopedThreads threads(4);
  std::vector<size_t> squares = ParallelMap(
      257, 3, [](size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelConfigTest, OverrideAndRestore) {
  SetParallelThreadCount(3);
  EXPECT_EQ(ParallelThreadCount(), 3u);
  SetParallelThreadCount(0);
  EXPECT_GE(ParallelThreadCount(), 1u);
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomUniform(rows, cols, -1.0, 1.0, &rng);
}

TEST(MatMulParallelTest, BitIdenticalAcrossThreadCounts) {
  Matrix a = RandomMatrix(300, 150, 1);
  Matrix b = RandomMatrix(150, 200, 2);
  Matrix serial, parallel;
  {
    ScopedThreads threads(1);
    serial = a.MatMul(b);
  }
  {
    ScopedThreads threads(4);
    parallel = a.MatMul(b);
  }
  EXPECT_TRUE(serial == parallel);
}

TEST(MatMulIntoTest, MatchesMatMulAndReusesStorage) {
  Matrix a = RandomMatrix(40, 30, 3);
  Matrix b = RandomMatrix(30, 20, 4);
  Matrix out;
  a.MatMulInto(b, &out);
  EXPECT_TRUE(out == a.MatMul(b));
  // A second product of the same shape reuses the buffer in place.
  const double* storage = out.data().data();
  Matrix c = RandomMatrix(40, 30, 5);
  c.MatMulInto(b, &out);
  EXPECT_EQ(out.data().data(), storage);
  EXPECT_TRUE(out == c.MatMul(b));
  // Shape changes reshape the output.
  Matrix d = RandomMatrix(7, 40, 6);
  d.MatMulInto(a, &out);
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 30u);
  EXPECT_TRUE(out == d.MatMul(a));
}

std::vector<const Graph*> Pointers(const std::vector<Graph>& graphs) {
  std::vector<const Graph*> out;
  for (const Graph& g : graphs) out.push_back(&g);
  return out;
}

std::vector<Graph> DeterminismGraphs() {
  Rng rng(11);
  std::vector<Graph> graphs;
  graphs.push_back(PetersenGraph());
  graphs.push_back(CycleGraph(9));
  graphs.push_back(PathGraph(17));
  for (int i = 0; i < 6; ++i) graphs.push_back(RandomGnp(40, 0.15, &rng));
  return graphs;
}

TEST(WlDeterminismTest, ColorRefinementStableColorsThreadInvariant) {
  std::vector<Graph> graphs = DeterminismGraphs();
  CrColoring serial, parallel;
  {
    ScopedThreads threads(1);
    serial = RunColorRefinement(Pointers(graphs));
  }
  {
    ScopedThreads threads(4);
    parallel = RunColorRefinement(Pointers(graphs));
  }
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.stable, parallel.stable);
  EXPECT_EQ(serial.history, parallel.history);
}

TEST(WlDeterminismTest, KwlStableColorsThreadInvariant) {
  auto [shr, rook] = Srg16Pair();
  for (size_t k = 2; k <= 3; ++k) {
    KwlColoring serial, parallel;
    {
      ScopedThreads threads(1);
      auto result = RunKwl({&shr, &rook}, k);
      ASSERT_TRUE(result.ok());
      serial = std::move(*result);
    }
    {
      ScopedThreads threads(4);
      auto result = RunKwl({&shr, &rook}, k);
      ASSERT_TRUE(result.ok());
      parallel = std::move(*result);
    }
    EXPECT_EQ(serial.rounds, parallel.rounds) << "k=" << k;
    EXPECT_EQ(serial.stable, parallel.stable) << "k=" << k;
  }
}

TEST(WlDeterminismTest, ObliviousKwlStableColorsThreadInvariant) {
  Graph a = CycleGraph(6);
  Graph b = CycleGraph(7);
  KwlColoring serial, parallel;
  {
    ScopedThreads threads(1);
    auto result = RunObliviousKwl({&a, &b}, 2);
    ASSERT_TRUE(result.ok());
    serial = std::move(*result);
  }
  {
    ScopedThreads threads(4);
    auto result = RunObliviousKwl({&a, &b}, 2);
    ASSERT_TRUE(result.ok());
    parallel = std::move(*result);
  }
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.stable, parallel.stable);
}

TEST(WlDeterminismTest, RelationalCrStableColorsThreadInvariant) {
  Rng rng(29);
  std::vector<RelationalGraph> graphs;
  for (int i = 0; i < 4; ++i) {
    RelationalGraph g(120, 2, 2);
    for (VertexId u = 0; u < 120; ++u) {
      g.SetOneHotFeature(u, rng.NextBounded(2));
      for (VertexId v = u + 1; v < 120; ++v) {
        if (rng.NextBernoulli(0.04)) {
          ASSERT_TRUE(g.AddEdge(rng.NextBounded(2), u, v).ok());
        }
      }
    }
    graphs.push_back(std::move(g));
  }
  std::vector<const RelationalGraph*> pointers;
  for (const RelationalGraph& g : graphs) pointers.push_back(&g);
  CrColoring serial, parallel;
  {
    ScopedThreads threads(1);
    serial = RunRelationalColorRefinement(pointers);
  }
  {
    ScopedThreads threads(4);
    parallel = RunRelationalColorRefinement(pointers);
  }
  EXPECT_GT(serial.rounds, 1u);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.stable, parallel.stable);
  EXPECT_EQ(serial.history, parallel.history);
}

TEST(WlDeterminismTest, SubtreeKernelMatrixThreadInvariant) {
  Rng rng(23);
  std::vector<Graph> graphs;
  for (int i = 0; i < 24; ++i) graphs.push_back(RandomGnp(24, 0.2, &rng));
  Matrix serial, parallel;
  {
    ScopedThreads threads(1);
    auto result = WlSubtreeKernelMatrix(Pointers(graphs), 3);
    ASSERT_TRUE(result.ok());
    serial = std::move(*result);
  }
  {
    ScopedThreads threads(4);
    auto result = WlSubtreeKernelMatrix(Pointers(graphs), 3);
    ASSERT_TRUE(result.ok());
    parallel = std::move(*result);
  }
  // Bit-for-bit: the Gram entries are doubles compared exactly.
  EXPECT_TRUE(serial == parallel);
}

}  // namespace
}  // namespace gelc
