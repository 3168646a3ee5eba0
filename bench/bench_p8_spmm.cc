// P8: SpMM vs dense-MatMul message passing. Sweeps Erdős–Rényi and
// regular (circulant) graphs over n ∈ {256, 1024, 4096}, edge density
// ∈ {0.5%, 2%, 10%}, forced thread counts {1, 4, 8}, and the SIMD
// kernel tier {scalar, avx2}; the dense baseline multiplies the
// materialized n x n adjacency by the same feature matrix. Args are
// {n, density per-mille, threads, tier} with the installed tier in the
// row label (vector rows degrade to scalar on non-AVX2 hardware).
// Results are bit-identical between the two paths, across thread counts,
// and between the scalar and avx2 tiers (tests/sparse_test.cc and
// tests/simd_test.cc assert it); these benches only time them, in wall
// time (UseRealTime) so the multi-thread rows count the pool's work.
// scripts/run_benches.sh records the sweep into BENCH_p8.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace gelc {
namespace {

constexpr size_t kFeatureDim = 32;

// Deltas of the serial/parallel dispatch decisions (`prefix`.* registry
// counters, prefix "spmm" or "matmul") and of the pool's scheduled-task
// count over the timed loop, attached to the bench JSON. All zero when
// the run has GELC_METRICS=0 (run_benches.sh passes GELC_METRICS=1).
class DispatchCounters {
 public:
  explicit DispatchCounters(const char* prefix)
      : serial_name_(std::string(prefix) + ".serial_dispatch"),
        parallel_name_(std::string(prefix) + ".parallel_dispatch"),
        serial_(obs::ReadCounter(serial_name_)),
        parallel_(obs::ReadCounter(parallel_name_)),
        scheduled_(obs::ReadCounter("parallel.tasks_scheduled")) {}

  void Attach(benchmark::State& state) const {
    state.counters["serial_dispatch"] =
        static_cast<double>(obs::ReadCounter(serial_name_) - serial_);
    state.counters["parallel_dispatch"] =
        static_cast<double>(obs::ReadCounter(parallel_name_) - parallel_);
    state.counters["pool_tasks_scheduled"] = static_cast<double>(
        obs::ReadCounter("parallel.tasks_scheduled") - scheduled_);
  }

 private:
  std::string serial_name_;
  std::string parallel_name_;
  uint64_t serial_;
  uint64_t parallel_;
  uint64_t scheduled_;
};

void SpmmSweep(benchmark::internal::Benchmark* b) {
  for (int64_t n : {256, 1024, 4096})
    for (int64_t permille : {5, 20, 100})
      for (int64_t threads : {1, 4, 8})
        for (int64_t tier : {0, 1})
          b->Args({n, permille, threads, tier});
  b->UseRealTime();
}

// Pins a SIMD tier for one run (0=scalar, 1=avx2) and labels the
// row with the tier actually installed.
struct ScopedBenchTier {
  explicit ScopedBenchTier(benchmark::State& state, int64_t tier_arg) {
    simd::Tier installed = simd::SetTier(static_cast<simd::Tier>(tier_arg));
    state.SetLabel(simd::TierName(installed));
  }
  ~ScopedBenchTier() { simd::ResetTier(); }
};

Graph ErdosRenyi(size_t n, int64_t permille) {
  Rng rng(7);
  return RandomGnp(n, static_cast<double>(permille) / 1000.0, &rng);
}

Graph Regular(size_t n, int64_t permille) {
  // Circulant with k consecutive offsets: a deterministic 2k-regular
  // graph at the target density. (RandomRegular's rejection-sampling
  // pairing model has vanishing acceptance at these degrees.)
  size_t degree = static_cast<size_t>(
      static_cast<double>(permille) / 1000.0 * static_cast<double>(n));
  size_t k = std::max<size_t>(1, degree / 2);
  std::vector<size_t> offsets;
  for (size_t s = 1; s <= k; ++s) offsets.push_back(s);
  return *CirculantGraph(n, offsets);
}

void RunSpMM(benchmark::State& state, const Graph& g) {
  ScopedBenchTier tier(state, state.range(3));
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  const CsrMatrix& a = g.Csr().adjacency();
  Rng rng(11);
  Matrix f = Matrix::RandomUniform(g.num_vertices(), kFeatureDim, -1.0, 1.0,
                                   &rng);
  Matrix out;
  DispatchCounters dispatch("spmm");
  for (auto _ : state) {
    SpMMInto(a, f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  dispatch.Attach(state);
  // One madd per stored arc per feature column.
  state.SetItemsProcessed(state.iterations() * a.nnz() * kFeatureDim);
  state.counters["nnz"] = static_cast<double>(a.nnz());
  SetParallelThreadCount(0);
}

void RunDense(benchmark::State& state, const Graph& g) {
  ScopedBenchTier tier(state, state.range(3));
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  Matrix a = g.AdjacencyMatrix();
  Rng rng(11);
  Matrix f = Matrix::RandomUniform(g.num_vertices(), kFeatureDim, -1.0, 1.0,
                                   &rng);
  Matrix out;
  DispatchCounters dispatch("matmul");
  for (auto _ : state) {
    a.MatMulInto(f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  dispatch.Attach(state);
  state.SetItemsProcessed(state.iterations() * g.num_vertices() *
                          g.num_vertices() * kFeatureDim);
  SetParallelThreadCount(0);
}

void BM_SpMM_ErdosRenyi(benchmark::State& state) {
  RunSpMM(state, ErdosRenyi(state.range(0), state.range(1)));
}
BENCHMARK(BM_SpMM_ErdosRenyi)->Apply(SpmmSweep);

void BM_SpMM_Regular(benchmark::State& state) {
  RunSpMM(state, Regular(state.range(0), state.range(1)));
}
BENCHMARK(BM_SpMM_Regular)->Apply(SpmmSweep);

void BM_DenseAdjMatMul_ErdosRenyi(benchmark::State& state) {
  RunDense(state, ErdosRenyi(state.range(0), state.range(1)));
}
BENCHMARK(BM_DenseAdjMatMul_ErdosRenyi)->Apply(SpmmSweep);

// The GCN operator: weighted SpMM with self-loops vs building and
// multiplying the dense normalized adjacency.
void BM_SpMM_GcnNormalized(benchmark::State& state) {
  Graph g = ErdosRenyi(state.range(0), state.range(1));
  ScopedBenchTier tier(state, state.range(3));
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  const CsrMatrix& a = g.Csr().normalized();
  Rng rng(11);
  Matrix f = Matrix::RandomUniform(g.num_vertices(), kFeatureDim, -1.0, 1.0,
                                   &rng);
  Matrix out;
  DispatchCounters dispatch("spmm");
  for (auto _ : state) {
    SpMMInto(a, f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  dispatch.Attach(state);
  state.SetItemsProcessed(state.iterations() * a.nnz() * kFeatureDim);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_SpMM_GcnNormalized)->Apply(SpmmSweep);

}  // namespace
}  // namespace gelc
