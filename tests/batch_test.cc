// Differential tests for batched graph execution (graph/batch.h plus the
// segment tape ops): a batch of k is bit-identical to k batches of one.
// Everything the batched path computes — logits, loss, parameter
// gradients, and a whole SGD step — must match, per member graph, the
// same forward over that graph packed alone, at every thread count. See
// DESIGN.md "Batched execution" for why bit-identity (not just closeness)
// is the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tape.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "gnn/trainable.h"
#include "graph/batch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace gelc {
namespace {

std::vector<const Graph*> Pointers(const std::vector<Graph>& graphs) {
  std::vector<const Graph*> ptrs;
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

// A deliberately mixed batch: path, cycle, a single isolated vertex
// (empty adjacency block), and a random graph.
std::vector<Graph> MixedGraphs() {
  Rng rng(31);
  std::vector<Graph> graphs;
  graphs.push_back(PathGraph(4));
  graphs.push_back(CycleGraph(5));
  graphs.push_back(Graph::Unlabeled(1));
  graphs.push_back(RandomGnp(7, 0.4, &rng));
  return graphs;
}

std::unique_ptr<TrainableGnn> MakeGnn() {
  TrainableGnn::Config config;
  config.widths = {1, 8, 8};
  config.seed = 42;
  Result<std::unique_ptr<TrainableGnn>> created = TrainableGnn::Create(config);
  GELC_CHECK_OK(created);
  return std::move(*created);
}

TEST(GraphBatchTest, PackingLayout) {
  std::vector<Graph> graphs = MixedGraphs();
  Result<GraphBatch> batch = GraphBatch::Create(Pointers(graphs));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_graphs(), 4u);
  EXPECT_EQ(batch->num_vertices(), 17u);
  EXPECT_EQ(batch->feature_dim(), 1u);
  std::vector<size_t> expected_offsets = {0, 4, 9, 10, 17};
  EXPECT_EQ(batch->vertex_offsets(), expected_offsets);
  // segment_ids() is the inverse map of vertex_offsets().
  for (size_t v = 0; v < batch->num_vertices(); ++v) {
    size_t s = batch->segment_of(v);
    EXPECT_GE(v, batch->graph_offset(s));
    EXPECT_LT(v, batch->graph_offset(s) + batch->graph_size(s));
  }
  // Features are the row concatenation; Slice recovers every block.
  size_t arcs = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(batch->Slice(batch->features(), i), graphs[i].features());
    EXPECT_EQ(batch->graph_size(i), graphs[i].num_vertices());
    arcs += graphs[i].num_arcs();
  }
  EXPECT_EQ(batch->num_arcs(), arcs);
}

TEST(GraphBatchTest, AdjacencyMatchesFoldedDisjointUnion) {
  std::vector<Graph> graphs = MixedGraphs();
  Result<GraphBatch> batch = GraphBatch::Create(Pointers(graphs));
  ASSERT_TRUE(batch.ok());
  Graph acc = graphs[0];
  for (size_t i = 1; i < graphs.size(); ++i)
    acc = *Graph::DisjointUnion(acc, graphs[i]);
  const CsrMatrix& a = batch->adjacency();
  const CsrMatrix& b = acc.Csr().adjacency();
  EXPECT_EQ(a.row_offsets, b.row_offsets);
  EXPECT_EQ(a.col_indices, b.col_indices);
  EXPECT_EQ(a.values, b.values);
}

TEST(GraphBatchTest, DirectedBatchBuildsRealTranspose) {
  Graph a = Graph::Unlabeled(3, /*directed=*/true);
  GELC_CHECK_OK(a.AddEdge(0, 1));
  GELC_CHECK_OK(a.AddEdge(2, 1));
  Graph b = Graph::Unlabeled(2, /*directed=*/true);
  GELC_CHECK_OK(b.AddEdge(1, 0));
  Result<GraphBatch> batch = GraphBatch::Create({&a, &b});
  ASSERT_TRUE(batch.ok());
  Graph u = *Graph::DisjointUnion(a, b);
  const CsrMatrix& t = batch->transpose();
  const CsrMatrix& expected = u.Csr().transpose();
  EXPECT_EQ(t.row_offsets, expected.row_offsets);
  EXPECT_EQ(t.col_indices, expected.col_indices);
}

TEST(GraphBatchTest, CreateValidation) {
  Graph p = PathGraph(3);
  EXPECT_FALSE(GraphBatch::Create({}).ok());
  EXPECT_FALSE(GraphBatch::Create({&p, nullptr}).ok());
  Graph wide(2, 3);  // feature dim 3 != 1
  EXPECT_FALSE(GraphBatch::Create({&p, &wide}).ok());
  Graph directed = Graph::Unlabeled(2, /*directed=*/true);
  EXPECT_FALSE(GraphBatch::Create({&p, &directed}).ok());
}

TEST(GraphBatchTest, PackRecordsMetrics) {
  std::vector<Graph> graphs = MixedGraphs();
  uint64_t packs = obs::ReadCounter("batch.packs");
  uint64_t graphs_before = obs::ReadCounter("batch.graphs");
  uint64_t vertices = obs::ReadCounter("batch.vertices");
  Result<GraphBatch> batch = GraphBatch::Create(Pointers(graphs));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(obs::ReadCounter("batch.packs") - packs, 1u);
  EXPECT_EQ(obs::ReadCounter("batch.graphs") - graphs_before,
            batch->num_graphs());
  EXPECT_EQ(obs::ReadCounter("batch.vertices") - vertices,
            batch->num_vertices());
}

// Batched logits, loss, gradients, and one SGD step are bit-identical to
// running each graph as a batch of one on its own tape, at thread counts
// 1 and 4.
TEST(BatchDifferentialTest, LogitsLossAndSgdStepBitIdentical) {
  std::vector<Graph> graphs = MixedGraphs();
  std::vector<size_t> labels = {0, 1, 0, 1};
  const size_t k = graphs.size();
  Result<GraphBatch> batch = GraphBatch::Create(Pointers(graphs));
  ASSERT_TRUE(batch.ok());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetParallelThreadCount(threads);
    std::unique_ptr<TrainableGnn> batched = MakeGnn();
    std::unique_ptr<TrainableGnn> reference = MakeGnn();  // same seed

    // Batched side: one tape, one backward pass, one SGD step.
    Sgd opt_b(0.05);
    for (Parameter* p : batched->Parameters()) opt_b.Register(p);
    opt_b.ZeroGrad();
    Tape tape;
    ValueId logits = batched->GraphLogits(&tape, *batch);
    ValueId loss = tape.SoftmaxCrossEntropy(logits, labels);
    tape.Backward(loss);
    const Matrix& batched_logits = tape.value(logits);
    double batched_loss = tape.value(loss).At(0, 0);

    // Reference side: one tape per graph, each packed as a batch of one.
    // Scaling each per-graph loss by fl(1/k) before Backward reproduces
    // the batched mean's backward scale exactly, and the segment-grouped
    // batched ops accumulate parameter gradients in the same association
    // as this loop.
    Sgd opt_r(0.05);
    for (Parameter* p : reference->Parameters()) opt_r.Register(p);
    opt_r.ZeroGrad();
    double loss_sum = 0.0;
    for (size_t i = 0; i < k; ++i) {
      Result<GraphBatch> one = GraphBatch::Create({&graphs[i]});
      ASSERT_TRUE(one.ok());
      Tape t;
      ValueId li = reference->GraphLogits(&t, *one);
      ValueId xent = t.SoftmaxCrossEntropy(li, {labels[i]});
      t.Backward(t.Scale(xent, 1.0 / static_cast<double>(k)));
      EXPECT_EQ(batched_logits.Row(i), t.value(li))
          << "graph " << i << " at " << threads << " threads";
      loss_sum += t.value(xent).At(0, 0);
    }
    // Same ascending sum-then-divide chain as the batched cross entropy.
    EXPECT_EQ(batched_loss, loss_sum / static_cast<double>(k)) << threads;

    std::vector<Parameter*> pb = batched->Parameters();
    std::vector<Parameter*> pr = reference->Parameters();
    ASSERT_EQ(pb.size(), pr.size());
    for (size_t j = 0; j < pb.size(); ++j)
      EXPECT_EQ(pb[j]->grad, pr[j]->grad)
          << "grad of param " << j << " at " << threads << " threads";
    opt_b.Step();
    opt_r.Step();
    for (size_t j = 0; j < pb.size(); ++j)
      EXPECT_EQ(pb[j]->value, pr[j]->value)
          << "param " << j << " after step at " << threads << " threads";
  }
  SetParallelThreadCount(0);
}

// Identical bits regardless of how ParallelFor shards the segment ops.
TEST(BatchDifferentialTest, ThreadCountInvariance) {
  std::vector<Graph> graphs = MixedGraphs();
  std::vector<size_t> labels = {1, 0, 1, 0};
  Result<GraphBatch> batch = GraphBatch::Create(Pointers(graphs));
  ASSERT_TRUE(batch.ok());
  Matrix logits_at[2];
  std::vector<Matrix> grads_at[2];
  const size_t counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    SetParallelThreadCount(counts[run]);
    std::unique_ptr<TrainableGnn> model = MakeGnn();
    Tape tape;
    ValueId logits = model->GraphLogits(&tape, *batch);
    tape.Backward(tape.SoftmaxCrossEntropy(logits, labels));
    logits_at[run] = tape.value(logits);
    for (Parameter* p : model->Parameters()) grads_at[run].push_back(p->grad);
  }
  SetParallelThreadCount(0);
  EXPECT_EQ(logits_at[0], logits_at[1]);
  ASSERT_EQ(grads_at[0].size(), grads_at[1].size());
  for (size_t j = 0; j < grads_at[0].size(); ++j)
    EXPECT_EQ(grads_at[0][j], grads_at[1][j]) << "param " << j;
}

TEST(TrainBatchTest, ExplicitFullBatchMatchesDefault) {
  Rng rng(23);
  GraphDataset ds = SyntheticMolecules(20, &rng);
  TrainOptions opt;
  opt.epochs = 15;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  Result<TrainReport> by_default = TrainGraphClassifier(ds, opt);
  opt.batch_size = 14;  // == train split at train_fraction 0.7
  Result<TrainReport> explicit_full = TrainGraphClassifier(ds, opt);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(explicit_full.ok());
  EXPECT_EQ(by_default->loss_history, explicit_full->loss_history);
  EXPECT_EQ(by_default->train_accuracy, explicit_full->train_accuracy);
  EXPECT_EQ(by_default->test_accuracy, explicit_full->test_accuracy);
}

TEST(TrainBatchTest, LossHistoryThreadInvariant) {
  Rng rng(23);
  GraphDataset ds = SyntheticMolecules(16, &rng);
  TrainOptions opt;
  opt.epochs = 10;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  SetParallelThreadCount(1);
  Result<TrainReport> serial = TrainGraphClassifier(ds, opt);
  SetParallelThreadCount(4);
  Result<TrainReport> pooled = TrainGraphClassifier(ds, opt);
  SetParallelThreadCount(0);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(serial->loss_history, pooled->loss_history);
  EXPECT_EQ(serial->train_accuracy, pooled->train_accuracy);
  EXPECT_EQ(serial->test_accuracy, pooled->test_accuracy);
}

TEST(TrainBatchTest, MinibatchesStillLearn) {
  Rng rng(29);
  GraphDataset ds = SyntheticMolecules(24, &rng);
  TrainOptions opt;
  opt.epochs = 40;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  opt.batch_size = 4;
  Result<TrainReport> report = TrainGraphClassifier(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->loss_history.back(), report->loss_history.front());
}

}  // namespace
}  // namespace gelc
