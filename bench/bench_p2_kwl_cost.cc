// P2: folklore k-WL cost versus k — the n^k tuple tables that motivate
// finding the minimal GEL^k fragment for a method (slide 70: "the lower k
// the better"). Every benchmark times wall clock (UseRealTime), as
// BENCH_p2.json records it.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

void BM_KwlByK(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(12, 0.3, &rng);
  size_t k = state.range(0);
  for (auto _ : state) {
    Result<KwlColoring> c = RunKwl({&g}, k);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_KwlByK)->Arg(1)->Arg(2)->Arg(3)->UseRealTime();

void BM_Kwl2BySize(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.3, &rng);
  for (auto _ : state) {
    Result<KwlColoring> c = RunKwl({&g}, 2);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Kwl2BySize)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oNCubed)
    ->UseRealTime();

void BM_Kwl3OnSrgPair(benchmark::State& state) {
  auto [shrikhande, rook] = Srg16Pair();
  for (auto _ : state) {
    Result<bool> r = KwlEquivalentGraphs(shrikhande, rook, 3);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Kwl3OnSrgPair)->UseRealTime();

}  // namespace
}  // namespace gelc
