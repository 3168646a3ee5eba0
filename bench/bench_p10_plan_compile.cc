// P10: the GEL query compiler itself — cold compile cost versus model
// depth, the structural plan-cache hit path, and what a model's inference
// entry point (core/compile_gnn.h: lower + compile + execute per call)
// costs over executing a plan compiled once.
#include <benchmark/benchmark.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "graph/generators.h"

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
BENCHMARK(BM_PlanCompileByDepth)->Arg(1)->Arg(3)->Arg(6);

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
BENCHMARK(BM_PlanCacheHit);

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
    ->Args({1, 4});

}  // namespace
}  // namespace gelc
