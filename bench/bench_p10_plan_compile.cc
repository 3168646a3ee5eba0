// P10: the GEL query compiler itself — cold compile cost versus model
// depth, the structural plan-cache hit path, what a model's inference
// entry point (core/compile_gnn.h: lower + compile + execute per call)
// costs over executing a plan compiled once, how fast the three model
// plans of the e2e query workload execute on its graph shape, and the
// fused layer kernel against the SpMM + MatMul parts it replaces.
// Every timed benchmark reports wall time (UseRealTime): the pool's
// workers do the work, so the main thread's CPU time would undercount.
#include <benchmark/benchmark.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "graph/generators.h"
#include "tensor/fused.h"
#include "tensor/sparse.h"

namespace gelc {
namespace {

Gnn101Model DeepModel(size_t layers, size_t width, Rng* rng) {
  std::vector<size_t> widths(layers + 1, width);
  widths[0] = 1;
  return *Gnn101Model::Random(widths, Activation::kTanh, 0.5, rng);
}

// Cold compile: lowering plus the full rewrite stack, no cache.
void BM_PlanCompileByDepth(benchmark::State& state) {
  Rng rng(7);
  Gnn101Model model = DeepModel(state.range(0), 8, &rng);
  ExprPtr e = *CompileGnn101ToGel(model);
  for (auto _ : state) {
    Result<PlanPtr> plan = CompileToPlan(e);
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel("layers=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PlanCompileByDepth)->Arg(1)->Arg(3)->Arg(6)->UseRealTime();

// Warm cache: one structural hash + bucket probe per query.
void BM_PlanCacheHit(benchmark::State& state) {
  Rng rng(7);
  Gnn101Model model = DeepModel(3, 8, &rng);
  ExprPtr e = *CompileGnn101ToGel(model);
  PlanCache cache;
  benchmark::DoNotOptimize(cache.GetOrCompile(e));
  for (auto _ : state) {
    Result<PlanPtr> plan = cache.GetOrCompile(e);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCacheHit)->UseRealTime();

// The inference entry point versus executing a plan compiled once (arg 0:
// 0 = entry point, 1 = plan) at arg 1 threads. Both run the same fused
// kernels; the gap is the per-call lowering and compile.
void BM_PlanVsEntryPoint(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(2048, 0.005, &rng);
  Gnn101Model model = DeepModel(3, 8, &rng);
  PlanPtr plan = *CompileToPlan(*CompileGnn101ToGel(model));
  const bool use_plan = state.range(0) != 0;
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    if (use_plan) {
      Result<Matrix> v = ExecutePlan(*plan, g);
      benchmark::DoNotOptimize(v);
    } else {
      Result<Matrix> v = VertexEmbeddings(model, g);
      benchmark::DoNotOptimize(v);
    }
  }
  SetParallelThreadCount(0);
  state.SetLabel(use_plan ? "compiled-plan" : "entry-point");
}
BENCHMARK(BM_PlanVsEntryPoint)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->UseRealTime();

// The query workload's graph shape: 2^15 vertices, a simple random graph
// of average degree 8, one-hot features over 4 labels.
constexpr size_t kQueryN = size_t{1} << 15;
constexpr size_t kQueryLabels = 4;

Graph BuildQueryGraph() {
  Rng rng(3);
  Graph g(kQueryN, kQueryLabels);
  const size_t target = 4 * kQueryN;  // degree 8, undirected
  while (g.num_edges() < target) {
    const auto u = static_cast<VertexId>(rng.NextBounded(kQueryN));
    const auto v = static_cast<VertexId>(rng.NextBounded(kQueryN));
    if (u != v && !g.HasEdge(u, v)) GELC_CHECK_OK(g.AddEdge(u, v));
  }
  for (size_t v = 0; v < kQueryN; ++v) {
    g.SetOneHotFeature(static_cast<VertexId>(v),
                       rng.NextBounded(kQueryLabels));
  }
  (void)g.Csr();
  return g;
}

const Graph& QueryGraph() {
  static const Graph graph = BuildQueryGraph();
  return graph;
}

// The query workload's three model plans (arg 0: 0 = GNN-101 3x16 ReLU,
// 1 = GIN 2x16, 2 = GNN-101 2x16 tanh + sum readout), with the same
// weights (model seed 5, drawn in that order), at arg 1 threads.
void BM_PlanExecute(benchmark::State& state) {
  Rng model_rng(5);
  Gnn101Model gnn = *Gnn101Model::Random({kQueryLabels, 16, 16, 16},
                                         Activation::kReLU, 0.5, &model_rng);
  GinModel gin = *GinModel::Random({kQueryLabels, 16, 16}, 0.5, &model_rng);
  Gnn101Model readout = *Gnn101Model::Random(
      {kQueryLabels, 16, 16}, Activation::kTanh, 0.5, &model_rng);
  const char* const names[] = {"gnn101-3x16", "gin-2x16", "readout-2x16"};
  const Result<ExprPtr> lowered[] = {CompileGnn101ToGel(gnn),
                                     CompileGinToGel(gin),
                                     CompileGnn101GraphToGel(readout)};
  const size_t which = static_cast<size_t>(state.range(0));
  PlanPtr plan = *CompileToPlan(*lowered[which]);
  const Graph& g = QueryGraph();
  SetParallelThreadCount(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    Result<Matrix> out = ExecutePlan(*plan, g);
    benchmark::DoNotOptimize(out);
  }
  SetParallelThreadCount(0);
  state.SetLabel(names[which]);
}
BENCHMARK(BM_PlanExecute)
    ->ArgsProduct({{0, 1, 2}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One GNN-101 layer on the query graph, d -> 16 with bias and ReLU
// (arg 0: 0 = FusedLayerInto, 1 = its parts SpMMInto(A, H) plus
// MatMulInto(H, W1) and MatMulInto(agg, W2), without the adds, bias and
// activation the parts would still owe), input width arg 1, at arg 2
// threads. Output buffers are preallocated for both.
void BM_FusedLayerVsParts(benchmark::State& state) {
  const bool fused = state.range(0) == 0;
  const size_t d = static_cast<size_t>(state.range(1));
  const Graph& g = QueryGraph();
  const CsrMatrix& a = g.Csr().adjacency();
  Rng rng(11);
  Matrix h = Matrix::RandomGaussian(kQueryN, d, 1.0, &rng);
  Matrix w1 = Matrix::RandomGaussian(d, 16, 0.5, &rng);
  Matrix w2 = Matrix::RandomGaussian(d, 16, 0.5, &rng);
  Matrix bias = Matrix::RandomGaussian(1, 16, 0.5, &rng);
  std::vector<FusedLayerArg> args(2);
  args[0].values = &h;
  args[0].w = &w1;
  args[1].values = &h;
  args[1].w = &w2;
  args[1].csr = &a;
  Matrix out(kQueryN, 16), agg(kQueryN, d), p1(kQueryN, 16),
      p2(kQueryN, 16);
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  for (auto _ : state) {
    if (fused) {
      FusedLayerInto(kQueryN, args, &bias, Activation::kReLU, &out);
      benchmark::DoNotOptimize(out.data().data());
    } else {
      SpMMInto(a, h, &agg);
      h.MatMulInto(w1, &p1);
      agg.MatMulInto(w2, &p2);
      benchmark::DoNotOptimize(p1.data().data());
      benchmark::DoNotOptimize(p2.data().data());
    }
    benchmark::ClobberMemory();
  }
  SetParallelThreadCount(0);
  state.SetLabel(std::string(fused ? "fused" : "parts") + " d=" +
                 std::to_string(d));
}
BENCHMARK(BM_FusedLayerVsParts)
    ->ArgsProduct({{0, 1}, {4, 16}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace gelc
