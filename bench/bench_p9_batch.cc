// P9: batched training epochs. A fixed 64-graph dataset is trained for
// one epoch per iteration — sum-of-gradients, one optimizer step — with
// one tape per GraphBatch minibatch. Args are {batch_size, n, threads};
// batch size 1 is the per-graph epoch, since a single graph trains as a
// batch of one. One batch of all 64 graphs gives the bits of 64 batches
// of one (tests/batch_test.cc pins it); these benches only time the
// epochs, in wall time (UseRealTime) so the 4-thread rows count the
// pool's work. scripts/run_benches.sh records the sweep and the batch.*
// registry deltas into BENCH_p9.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tape.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "gnn/trainable.h"
#include "graph/batch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace gelc {
namespace {

constexpr size_t kDatasetSize = 64;

// Untimed pre-training in each bench's setup. Training on this workload
// converges by a few hundred epochs (ReLU masks drive most gradients to
// exact zero, which Tape::Backward's dead-branch skip then elides), so
// without a warmup the measured window is a min_time-dependent mixture
// of the live transient and the converged steady state. Pre-training
// past convergence pins the regime: the timed iterations measure the
// steady-state epoch, which is where a long e10-style run spends its
// time. (Fully live epoch-0 gradients narrow the batched advantage at
// n = 8; BENCH_p9.json records the steady state.)
constexpr int kSteadyStateWarmupEpochs = 800;

// The bench_e10_erm molecule recipe (graph/generators.cc
// SyntheticMolecules), parameterized on exact graph size so the sweep
// scales cleanly: a random tree skeleton, 4-way one-hot atom features,
// and a planted triangle "functional group" on every odd graph.
std::vector<Graph> MakeDataset(size_t n) {
  constexpr size_t kAtomTypes = 4;
  Rng rng(7);
  std::vector<Graph> graphs;
  graphs.reserve(kDatasetSize);
  for (size_t i = 0; i < kDatasetSize; ++i) {
    Graph tree = RandomTree(n, &rng);
    Graph mol(n, kAtomTypes);
    for (size_t u = 0; u < n; ++u) {
      for (VertexId v : tree.Neighbors(static_cast<VertexId>(u))) {
        if (v < u) continue;
        GELC_CHECK_OK(mol.AddEdge(static_cast<VertexId>(u), v));
      }
      mol.SetOneHotFeature(static_cast<VertexId>(u),
                           rng.NextBounded(kAtomTypes));
    }
    if (i % 2 == 1) {
      std::vector<size_t> perm = rng.Permutation(n);
      VertexId a = static_cast<VertexId>(perm[0]);
      VertexId b = static_cast<VertexId>(perm[1]);
      VertexId c = static_cast<VertexId>(perm[2]);
      if (!mol.HasEdge(a, b)) GELC_CHECK_OK(mol.AddEdge(a, b));
      if (!mol.HasEdge(b, c)) GELC_CHECK_OK(mol.AddEdge(b, c));
      if (!mol.HasEdge(a, c)) GELC_CHECK_OK(mol.AddEdge(a, c));
      mol.SetOneHotFeature(a, 0);
      mol.SetOneHotFeature(b, 1);
      mol.SetOneHotFeature(c, 2);
    }
    graphs.push_back(std::move(mol));
  }
  return graphs;
}

std::vector<size_t> MakeLabels() {
  std::vector<size_t> labels(kDatasetSize);
  for (size_t i = 0; i < kDatasetSize; ++i) labels[i] = i % 2;
  return labels;
}

std::unique_ptr<TrainableGnn> MakeModel() {
  // bench_e10_erm's molecule classifier: 4 atom-type inputs, hidden
  // widths {16, 16}.
  TrainableGnn::Config cfg;
  cfg.widths = {4, 16, 16};
  cfg.seed = 5;
  return TrainableGnn::Create(cfg).value();
}

// Registry deltas over the bench body (packing included), attached to the
// JSON. All zero under GELC_METRICS=0 (run_benches.sh passes =1).
class BatchCounters {
 public:
  BatchCounters()
      : packs_(obs::ReadCounter("batch.packs")),
        graphs_(obs::ReadCounter("batch.graphs")),
        vertices_(obs::ReadCounter("batch.vertices")),
        edges_(obs::ReadCounter("batch.edges")),
        spmm_serial_(obs::ReadCounter("spmm.serial_dispatch")),
        spmm_parallel_(obs::ReadCounter("spmm.parallel_dispatch")) {}

  void Attach(benchmark::State& state) const {
    state.counters["batch_packs"] =
        static_cast<double>(obs::ReadCounter("batch.packs") - packs_);
    state.counters["batch_graphs"] =
        static_cast<double>(obs::ReadCounter("batch.graphs") - graphs_);
    state.counters["batch_vertices"] =
        static_cast<double>(obs::ReadCounter("batch.vertices") - vertices_);
    state.counters["batch_edges"] =
        static_cast<double>(obs::ReadCounter("batch.edges") - edges_);
    state.counters["spmm_serial_dispatch"] = static_cast<double>(
        obs::ReadCounter("spmm.serial_dispatch") - spmm_serial_);
    state.counters["spmm_parallel_dispatch"] = static_cast<double>(
        obs::ReadCounter("spmm.parallel_dispatch") - spmm_parallel_);
  }

 private:
  uint64_t packs_;
  uint64_t graphs_;
  uint64_t vertices_;
  uint64_t edges_;
  uint64_t spmm_serial_;
  uint64_t spmm_parallel_;
};

// n = 8/16 is the molecule regime (the paper's slide-7 motivating
// application) where per-tape overhead dominates and batching pays
// multiples; n = 64 shows the large-graph end where per-graph kernels
// are already amortized and batching rides to parity.
void BatchedSweep(benchmark::internal::Benchmark* b) {
  for (int64_t batch : {1, 8, 32})
    for (int64_t n : {8, 16, 64})
      for (int64_t threads : {1, 4}) b->Args({batch, n, threads});
  b->UseRealTime();
}

// The batched epoch: minibatches packed once up front (as the trainer
// does), one tape per minibatch, Scale(loss, k) restoring sum semantics.
void BM_EpochBatched(benchmark::State& state) {
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  std::vector<Graph> graphs = MakeDataset(state.range(1));
  std::vector<size_t> labels = MakeLabels();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  BatchCounters counters;  // before packing: pack deltas land in the JSON
  struct Minibatch {
    GraphBatch batch;
    std::vector<size_t> labels;
  };
  std::vector<Minibatch> minibatches;
  for (size_t lo = 0; lo < graphs.size(); lo += batch_size) {
    size_t hi = std::min(graphs.size(), lo + batch_size);
    std::vector<const Graph*> ptrs;
    std::vector<size_t> batch_labels;
    for (size_t i = lo; i < hi; ++i) {
      ptrs.push_back(&graphs[i]);
      batch_labels.push_back(labels[i]);
    }
    minibatches.push_back(
        {GraphBatch::Create(ptrs).value(), std::move(batch_labels)});
  }
  std::unique_ptr<TrainableGnn> model = MakeModel();
  Sgd opt(0.01);
  for (Parameter* p : model->Parameters()) opt.Register(p);
  auto epoch = [&]() {
    opt.ZeroGrad();
    for (const Minibatch& mb : minibatches) {
      Tape tape;
      ValueId logits = model->GraphLogits(&tape, mb.batch);
      ValueId loss = tape.SoftmaxCrossEntropy(logits, mb.labels);
      tape.Backward(
          tape.Scale(loss, static_cast<double>(mb.labels.size())));
    }
    opt.Step();
  };
  for (int e = 0; e < kSteadyStateWarmupEpochs; ++e) epoch();
  for (auto _ : state) epoch();
  counters.Attach(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graphs.size()));
  SetParallelThreadCount(0);
}
BENCHMARK(BM_EpochBatched)->Apply(BatchedSweep);

}  // namespace
}  // namespace gelc
