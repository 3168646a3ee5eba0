// P6: the price of expressiveness — forward cost of plain GNN-101 vs
// ID-aware GNN (n base runs) vs 2-FGNN (n^2 state, n^3 layer work),
// complementing the E11 power ladder with its compute ladder.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/fgnn.h"
#include "gnn/gnn101.h"
#include "gnn/subgraph.h"
#include "graph/generators.h"

namespace gelc {
namespace {

void BM_PlainGnnForward(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.2, &rng);
  Gnn101Model model =
      *Gnn101Model::Random({1, 8, 8}, Activation::kTanh, 0.5, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexEmbeddings(model, g));
  }
}
BENCHMARK(BM_PlainGnnForward)->Arg(16)->Arg(32)->Arg(64);

void BM_IdGnnForward(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.2, &rng);
  IdGnnModel model =
      *IdGnnModel::Random({1, 8, 8}, Activation::kTanh, 0.5, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexEmbeddings(model, g));
  }
}
BENCHMARK(BM_IdGnnForward)->Arg(16)->Arg(32)->Arg(64);

void BM_Fgnn2Forward(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.2, &rng);
  Fgnn2Model model = *Fgnn2Model::Random({1, 8, 8}, 0.5, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PairEmbeddings(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Fgnn2Forward)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oNCubed);

}  // namespace
}  // namespace gelc
