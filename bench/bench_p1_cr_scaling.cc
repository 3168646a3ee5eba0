// P1: color refinement cost as a function of graph size and density, plus
// the interning-ablation noted in DESIGN.md (joint 2-graph refinement vs
// single-graph refinement measures the shared-interner overhead). Every
// benchmark times wall clock (UseRealTime), as BENCH_p1.json records it.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "wl/color_refinement.h"

namespace gelc {
namespace {

void BM_ColorRefinementSize(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.1, &rng);
  for (auto _ : state) {
    CrColoring c = RunColorRefinement({&g});
    benchmark::DoNotOptimize(c.stable);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ColorRefinementSize)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity(benchmark::oNLogN)
    ->UseRealTime();

void BM_ColorRefinementDensity(benchmark::State& state) {
  Rng rng(7);
  double p = static_cast<double>(state.range(0)) / 100.0;
  Graph g = RandomGnp(128, p, &rng);
  for (auto _ : state) {
    CrColoring c = RunColorRefinement({&g});
    benchmark::DoNotOptimize(c.stable);
  }
}
BENCHMARK(BM_ColorRefinementDensity)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->UseRealTime();

void BM_ColorRefinementJointPair(benchmark::State& state) {
  Rng rng(7);
  Graph a = RandomGnp(state.range(0), 0.1, &rng);
  Graph b = RandomGnp(state.range(0), 0.1, &rng);
  for (auto _ : state) {
    CrColoring c = RunColorRefinement({&a, &b});
    benchmark::DoNotOptimize(c.stable);
  }
}
BENCHMARK(BM_ColorRefinementJointPair)->Arg(64)->Arg(128)->Arg(256)
    ->UseRealTime();

// Worst case for round count: a long path needs ~n/2 rounds.
void BM_ColorRefinementPathWorstCase(benchmark::State& state) {
  Graph g = PathGraph(state.range(0));
  for (auto _ : state) {
    CrColoring c = RunColorRefinement({&g});
    benchmark::DoNotOptimize(c.rounds);
  }
}
BENCHMARK(BM_ColorRefinementPathWorstCase)->Arg(64)->Arg(128)->Arg(256)
    ->UseRealTime();

}  // namespace
}  // namespace gelc
