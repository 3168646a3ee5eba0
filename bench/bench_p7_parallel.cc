// P7: serial-vs-parallel speedup of the four paths wired into the thread
// pool (base/parallel.h): Matrix::MatMul, RunColorRefinement, k-WL tuple
// recoloring, and the WL subtree kernel Gram matrix. Each benchmark sweeps
// the forced thread count 1/2/4/8 (arg 1) over sizes drawn from the P1/P2
// ranges (arg 0); compare rows to read off the speedup. Results are
// bit-identical across the sweep — the determinism tests in
// parallel_test.cc assert it; these benches only time it, in wall time
// (UseRealTime), since the pool's workers do the work and the main
// thread's CPU time would undercount.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "wl/color_refinement.h"
#include "wl/kernel.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

void ThreadSweep(benchmark::internal::Benchmark* b,
                 std::initializer_list<int64_t> sizes) {
  for (int64_t size : sizes)
    for (int64_t threads : {1, 2, 4, 8}) b->Args({size, threads});
  b->UseRealTime();
}

// Pins a SIMD tier for one benchmark run (0=scalar, 1=avx2) and
// labels the row with the tier actually installed — on non-AVX2 hardware
// the vector rows degrade to scalar and say so in the label, so sweep
// rows are never silently mislabeled.
struct ScopedBenchTier {
  explicit ScopedBenchTier(benchmark::State& state, int64_t tier_arg) {
    simd::Tier installed = simd::SetTier(static_cast<simd::Tier>(tier_arg));
    state.SetLabel(simd::TierName(installed));
  }
  ~ScopedBenchTier() { simd::ResetTier(); }
};

// Deltas of the pool's deterministic scheduling counters over the timed
// loop, attached to the bench output so the JSON records how often each
// path fanned out and how many tasks hit the pool queue. All zero when
// the run has GELC_METRICS=0 (run_benches.sh passes GELC_METRICS=1).
class PoolCounters {
 public:
  PoolCounters()
      : calls_(obs::ReadCounter("parallel.calls")),
        serial_(obs::ReadCounter("parallel.serial_calls")),
        scheduled_(obs::ReadCounter("parallel.tasks_scheduled")) {}

  void Attach(benchmark::State& state) const {
    state.counters["pool_calls"] =
        static_cast<double>(obs::ReadCounter("parallel.calls") - calls_);
    state.counters["pool_serial_calls"] = static_cast<double>(
        obs::ReadCounter("parallel.serial_calls") - serial_);
    state.counters["pool_tasks_scheduled"] = static_cast<double>(
        obs::ReadCounter("parallel.tasks_scheduled") - scheduled_);
  }

 private:
  uint64_t calls_;
  uint64_t serial_;
  uint64_t scheduled_;
};

void BM_MatMulParallel(benchmark::State& state) {
  ScopedBenchTier tier(state, state.range(2));
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Matrix a = Matrix::RandomUniform(n, n, -1.0, 1.0, &rng);
  Matrix b = Matrix::RandomUniform(n, n, -1.0, 1.0, &rng);
  Matrix out;
  PoolCounters pool;
  for (auto _ : state) {
    a.MatMulInto(b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  pool.Attach(state);
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_MatMulParallel)->Apply([](benchmark::internal::Benchmark* b) {
  // The dense product also sweeps the SIMD tier (arg 2; 0=scalar,
  // 1=avx2) — the serial/parallel crossover depends on it, and the
  // checked-in JSON records the per-tier speedup curves.
  for (int64_t size : {256, 512})
    for (int64_t threads : {1, 2, 4, 8})
      for (int64_t tier : {0, 1}) b->Args({size, threads, tier});
  b->UseRealTime();
});

void BM_ColorRefinementParallel(benchmark::State& state) {
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.1, &rng);
  PoolCounters pool;
  for (auto _ : state) {
    CrColoring c = RunColorRefinement({&g});
    benchmark::DoNotOptimize(c.stable);
  }
  pool.Attach(state);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_ColorRefinementParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadSweep(b, {256, 512});
    });

void BM_KwlRecoloringParallel(benchmark::State& state) {
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  Rng rng(7);
  Graph a = RandomGnp(state.range(0), 0.3, &rng);
  Graph b = RandomGnp(state.range(0), 0.3, &rng);
  PoolCounters pool;
  for (auto _ : state) {
    auto c = RunKwl({&a, &b}, 2);
    benchmark::DoNotOptimize(c);
  }
  pool.Attach(state);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_KwlRecoloringParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadSweep(b, {24, 32});
    });

void BM_WlKernelParallel(benchmark::State& state) {
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  Rng rng(7);
  std::vector<Graph> graphs;
  for (int64_t i = 0; i < state.range(0); ++i)
    graphs.push_back(RandomGnp(24, 0.2, &rng));
  std::vector<const Graph*> ptrs;
  for (const Graph& g : graphs) ptrs.push_back(&g);
  PoolCounters pool;
  for (auto _ : state) {
    auto k = WlSubtreeKernelMatrix(ptrs, 3);
    benchmark::DoNotOptimize(k);
  }
  pool.Attach(state);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_WlKernelParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadSweep(b, {64, 128});
    });

}  // namespace
}  // namespace gelc
