// P4: inference throughput of the GNN families (each model's entry point
// in core/compile_gnn.h: lower, compile, execute) and the training step
// cost.
#include <benchmark/benchmark.h>

#include "autodiff/tape.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "gnn/trainable.h"
#include "graph/batch.h"
#include "graph/generators.h"

namespace gelc {
namespace {

void BM_Gnn101Forward(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.1, &rng);
  Gnn101Model model =
      *Gnn101Model::Random({1, 16, 16}, Activation::kReLU, 0.5, &rng);
  for (auto _ : state) {
    Result<Matrix> f = VertexEmbeddings(model, g);
    benchmark::DoNotOptimize(f);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gnn101Forward)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity(benchmark::oNSquared);

void BM_MpnnForwardByAgg(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(128, 0.1, &rng);
  Aggregation agg = static_cast<Aggregation>(state.range(0));
  MpnnModel model = *MpnnModel::Random({1, 16, 16}, agg, 0.5, &rng);
  for (auto _ : state) {
    Result<Matrix> f = VertexEmbeddings(model, g);
    benchmark::DoNotOptimize(f);
  }
  state.SetLabel(AggregationName(agg));
}
BENCHMARK(BM_MpnnForwardByAgg)->Arg(0)->Arg(1)->Arg(2);

void BM_GinForward(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(state.range(0), 0.1, &rng);
  GinModel model = *GinModel::Random({1, 16, 16}, 0.5, &rng);
  for (auto _ : state) {
    Result<Matrix> f = VertexEmbeddings(model, g);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_GinForward)->Arg(64)->Arg(256);

void BM_TrainingStep(benchmark::State& state) {
  Rng rng(7);
  NodeDataset ds = SyntheticCitations(state.range(0), 3, 0.3, &rng);
  TrainableGnn::Config cfg;
  cfg.widths = {3, 16};
  cfg.num_outputs = 3;
  auto model = TrainableGnn::Create(cfg).value();
  std::vector<size_t> labels;
  for (size_t v : ds.train_nodes) labels.push_back(ds.labels[v]);
  // Packed once, as TrainNodeClassifier does before its epoch loop.
  GraphBatch batch = GraphBatch::Create({&ds.graph}).value();
  for (auto _ : state) {
    Tape tape;
    ValueId logits = model->NodeLogits(&tape, batch);
    ValueId train_logits = tape.GatherRows(logits, ds.train_nodes);
    ValueId loss = tape.SoftmaxCrossEntropy(train_logits, labels);
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape.value(loss));
  }
}
BENCHMARK(BM_TrainingStep)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
}  // namespace gelc
