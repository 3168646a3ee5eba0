// Tests for the GNN library: GNN-101, MPNN variants, invariance (slide 11),
// aggregation behaviour, and ERM training (slides 16-20). Fixed-weight
// models run through their compiled plans (core/compile_gnn.h).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/gnn101.h"
#include "gnn/mlp.h"
#include "gnn/mpnn.h"
#include "gnn/trainable.h"
#include "graph/generators.h"
#include "tensor/fused.h"

namespace gelc {
namespace {

TEST(MlpTest, EmptyIsIdentity) {
  Mlp mlp;
  Matrix x = {{1, 2}, {3, 4}};
  EXPECT_EQ(mlp.Forward(x), x);
}

TEST(MlpTest, SingleLayerMatchesManual) {
  MlpLayer l;
  l.w = Matrix({{1, 0}, {0, 2}});
  l.b = Matrix({{1, -1}});
  l.act = Activation::kReLU;
  Mlp mlp({l});
  Matrix x = {{1, 1}};
  EXPECT_EQ(mlp.Forward(x), Matrix({{2, 1}}));
  Matrix y = {{-5, 0}};
  EXPECT_EQ(mlp.Forward(y), Matrix({{0, 0}}));
}

TEST(MlpTest, RandomShapes) {
  Rng rng(1);
  Result<Mlp> mlp = Mlp::Random({3, 8, 2}, Activation::kReLU,
                                Activation::kIdentity, 0.5, &rng);
  ASSERT_TRUE(mlp.ok());
  EXPECT_EQ(mlp->in_dim(), 3u);
  EXPECT_EQ(mlp->out_dim(), 2u);
  Matrix out = mlp->Forward(Matrix(5, 3, 1.0));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_FALSE(Mlp::Random({3}, Activation::kReLU, Activation::kIdentity,
                           0.5, &rng)
                   .ok());
}

TEST(Gnn101Test, HandWeightsComputeDegree) {
  // One layer, identity activation, w1 = 0, w2 = 1 on 1-dim all-ones
  // features: output = degree.
  Gnn101Layer l;
  l.w1 = Matrix({{0.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  l.act = Activation::kIdentity;
  Gnn101Model model({l});
  Graph star = StarGraph(3);
  Matrix f = *VertexEmbeddings(model, star);
  EXPECT_EQ(f.At(0, 0), 3.0);  // hub
  for (size_t v = 1; v <= 3; ++v) EXPECT_EQ(f.At(v, 0), 1.0);
}

TEST(Gnn101Test, TwoLayersPropagateTwoHops) {
  // Same degree layer twice: second layer sums neighbor degrees.
  Gnn101Layer l;
  l.w1 = Matrix({{0.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  l.act = Activation::kIdentity;
  Gnn101Model model({l, l});
  Graph p = PathGraph(4);  // degrees 1,2,2,1
  Matrix f = *VertexEmbeddings(model, p);
  EXPECT_EQ(f.At(0, 0), 2.0);      // neighbor degrees of 0: {2}
  EXPECT_EQ(f.At(1, 0), 3.0);      // {1, 2}
}

TEST(Gnn101Test, FeatureDimValidated) {
  Rng rng(2);
  Gnn101Model model = *Gnn101Model::Random({3, 4}, Activation::kReLU, 0.5,
                                           &rng);
  Graph g = Graph::Unlabeled(4);  // feature dim 1 != 3
  EXPECT_FALSE(VertexEmbeddings(model, g).ok());
  // More feature columns than the model reads is an error too: the plan
  // alone would silently read the first three.
  Graph wide(4, 5);
  EXPECT_FALSE(VertexEmbeddings(model, wide).ok());
  EXPECT_FALSE(GraphEmbedding(model, wide).ok());
  GinModel gin = *GinModel::Random({3, 4}, 0.5, &rng);
  EXPECT_FALSE(VertexEmbeddings(gin, wide).ok());
  GcnModel gcn = *GcnModel::Random({3, 4}, 0.5, &rng);
  EXPECT_FALSE(VertexEmbeddings(gcn, wide).ok());
  GraphSageModel sage = *GraphSageModel::Random({3, 4}, 0.5, &rng);
  EXPECT_FALSE(VertexEmbeddings(sage, wide).ok());
  MpnnModel mpnn = *MpnnModel::Random({3, 4}, Aggregation::kSum, 0.5, &rng);
  EXPECT_FALSE(VertexEmbeddings(mpnn, wide).ok());
  EXPECT_FALSE(GraphEmbedding(mpnn, wide).ok());
}

TEST(Gnn101Test, ReadoutRequiresConfiguration) {
  Gnn101Layer l;
  l.w1 = Matrix({{1.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  Gnn101Model model({l});
  EXPECT_FALSE(GraphEmbedding(model, PathGraph(3)).ok());
}

TEST(Gnn101Test, InvarianceUnderPermutation) {
  Rng rng(3);
  Gnn101Model model =
      *Gnn101Model::Random({1, 8, 8}, Activation::kTanh, 0.7, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = RandomGnp(10, 0.35, &rng);
    std::vector<size_t> perm = rng.Permutation(10);
    Graph h = g.Permuted(perm).value();
    Matrix fg = *VertexEmbeddings(model, g);
    Matrix fh = *VertexEmbeddings(model, h);
    for (size_t v = 0; v < 10; ++v)
      EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
    Matrix eg = *GraphEmbedding(model, g);
    Matrix eh = *GraphEmbedding(model, h);
    EXPECT_TRUE(eg.AllClose(eh, 1e-9));
  }
}

// The θ kernels of compiled plans (tensor/fused.h) on hand-checked bags.
Matrix Aggregate(const Graph& g, const Matrix& f, FusedAgg agg) {
  Matrix out;
  NeighborAggregateInto(g.Csr().adjacency(), f, agg, false, false, &out);
  return out;
}

TEST(AggregateTest, SumMeanMaxKnownValues) {
  Graph p = PathGraph(3);
  Matrix f = {{1, 10}, {2, 20}, {4, 40}};
  Matrix sum = Aggregate(p, f, FusedAgg::kSum);
  EXPECT_EQ(sum.Row(0), Matrix({{2, 20}}));
  EXPECT_EQ(sum.Row(1), Matrix({{5, 50}}));
  Matrix mean = Aggregate(p, f, FusedAgg::kMean);
  EXPECT_EQ(mean.Row(1), Matrix({{2.5, 25}}));
  Matrix mx = Aggregate(p, f, FusedAgg::kMax);
  EXPECT_EQ(mx.Row(1), Matrix({{4, 40}}));
}

TEST(AggregateTest, IsolatedVertexAggregatesToZero) {
  Graph g = Graph::Unlabeled(2);  // no edges
  Matrix f = {{3, -1}, {5, 2}};
  for (FusedAgg agg : {FusedAgg::kSum, FusedAgg::kMean, FusedAgg::kMax}) {
    EXPECT_EQ(Aggregate(g, f, agg), Matrix(2, 2)) << static_cast<int>(agg);
  }
}

TEST(AggregateTest, PoolVariants) {
  Matrix f = {{1, -5}, {3, 7}};
  EXPECT_EQ(PoolRows(f, FusedAgg::kSum, 2, false), Matrix({{4, 2}}));
  EXPECT_EQ(PoolRows(f, FusedAgg::kMean, 2, false), Matrix({{2, 1}}));
  EXPECT_EQ(PoolRows(f, FusedAgg::kMax, 2, false), Matrix({{3, 7}}));
  // An empty pool is the zero row for every θ.
  for (FusedAgg agg : {FusedAgg::kSum, FusedAgg::kMean, FusedAgg::kMax}) {
    EXPECT_EQ(PoolRows(Matrix(0, 2), agg, 0, false), Matrix(1, 2))
        << static_cast<int>(agg);
  }
}

class MpnnInvarianceTest
    : public ::testing::TestWithParam<Aggregation> {};

TEST_P(MpnnInvarianceTest, GraphEmbeddingInvariant) {
  Rng rng(5);
  MpnnModel model = *MpnnModel::Random({1, 6, 6}, GetParam(), 0.7, &rng);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGnp(9, 0.4, &rng);
    Graph h = g.Permuted(rng.Permutation(9)).value();
    Matrix eg = *GraphEmbedding(model, g);
    Matrix eh = *GraphEmbedding(model, h);
    EXPECT_TRUE(eg.AllClose(eh, 1e-9)) << AggregationName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggregations, MpnnInvarianceTest,
                         ::testing::Values(Aggregation::kSum,
                                           Aggregation::kMean,
                                           Aggregation::kMax));

TEST(GinTest, InvarianceAndShape) {
  Rng rng(7);
  GinModel model = *GinModel::Random({1, 5, 5}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(8)).value();
  EXPECT_TRUE((*GraphEmbedding(model, g)).AllClose(*GraphEmbedding(model, h),
                                                  1e-9));
  EXPECT_EQ((*VertexEmbeddings(model, g)).cols(), 5u);
}

TEST(GcnTest, InvarianceUnderPermutation) {
  Rng rng(8);
  GcnModel model = *GcnModel::Random({1, 6}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  std::vector<size_t> perm = rng.Permutation(8);
  Graph h = g.Permuted(perm).value();
  Matrix fg = *VertexEmbeddings(model, g);
  Matrix fh = *VertexEmbeddings(model, h);
  for (size_t v = 0; v < 8; ++v)
    EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
}

TEST(GraphSageTest, InvarianceUnderPermutation) {
  Rng rng(9);
  GraphSageModel model = *GraphSageModel::Random({1, 6}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  std::vector<size_t> perm = rng.Permutation(8);
  Graph h = g.Permuted(perm).value();
  Matrix fg = *VertexEmbeddings(model, g);
  Matrix fh = *VertexEmbeddings(model, h);
  for (size_t v = 0; v < 8; ++v)
    EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
}

TEST(MpnnModelTest, SumSeparatesWhatMeanCannot) {
  // K_{1,2} star vs K_{1,3} star with constant features: mean-aggregation
  // vertex embeddings of hubs coincide in the first layer, sum separates
  // by degree. Graph-level: mean-MPNN cannot distinguish a graph from its
  // "doubled" disjoint self-union; sum can.
  Graph c3 = CycleGraph(3);
  Graph c3c3 = *Graph::DisjointUnion(CycleGraph(3), CycleGraph(3));
  Rng rng(11);
  bool sum_separates = false;
  for (int i = 0; i < 10; ++i) {
    MpnnModel sum_model =
        *MpnnModel::Random({1, 5, 5}, Aggregation::kSum, 0.8, &rng);
    Matrix a = *GraphEmbedding(sum_model, c3);
    Matrix b = *GraphEmbedding(sum_model, c3c3);
    if (a.MaxAbsDiff(b) > 1e-6) sum_separates = true;
  }
  EXPECT_TRUE(sum_separates);
}

TEST(TrainableTest, ConfigValidation) {
  TrainableGnn::Config bad;
  bad.widths = {3};
  EXPECT_FALSE(TrainableGnn::Create(bad).ok());
  bad.widths = {3, 4};
  bad.num_outputs = 0;
  EXPECT_FALSE(TrainableGnn::Create(bad).ok());
}

TEST(TrainableTest, NodeClassifierLearnsCommunities) {
  Rng rng(21);
  NodeDataset ds = SyntheticCitations(80, 2, 0.2, &rng);
  TrainOptions opt;
  opt.epochs = 120;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  Result<TrainReport> report = TrainNodeClassifier(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.9);
  EXPECT_GT(report->test_accuracy, 0.8);
  // Loss decreased.
  EXPECT_LT(report->loss_history.back(), report->loss_history.front());
}

TEST(TrainableTest, GraphClassifierLearnsMolecules) {
  Rng rng(23);
  GraphDataset ds = SyntheticMolecules(60, &rng);
  TrainOptions opt;
  opt.epochs = 120;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8, 8};
  Result<TrainReport> report = TrainGraphClassifier(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.85);
  EXPECT_GT(report->test_accuracy, 0.7);
}

TEST(TrainableTest, LinkPredictorBeatsChance) {
  Rng rng(25);
  LinkDataset ds = SyntheticSocialLinks(200, &rng);
  TrainOptions opt;
  opt.epochs = 100;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  Result<TrainReport> report = TrainLinkPredictor(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.7);
  EXPECT_GT(report->test_accuracy, 0.6);
}

// A malformed dataset is an InvalidArgument from the trainer: no abort
// inside the tape and no NaN loss. Each case breaks one field of a valid
// dataset.
bool RejectedAsInvalid(const Result<TrainReport>& report) {
  return !report.ok() &&
         report.status().code() == StatusCode::kInvalidArgument;
}

TEST(TrainableTest, NodeClassifierRejectsMalformedDataset) {
  Rng rng(27);
  const NodeDataset good = SyntheticCitations(30, 3, 0.3, &rng);
  TrainOptions opt;
  opt.epochs = 3;
  ASSERT_TRUE(TrainNodeClassifier(good, opt).ok());
  std::vector<std::function<void(NodeDataset*)>> breaks = {
      [](NodeDataset* d) { d->train_nodes.clear(); },
      [](NodeDataset* d) { d->labels.pop_back(); },
      [](NodeDataset* d) { d->labels[d->train_nodes[0]] = 7; },
      [](NodeDataset* d) { d->labels[d->test_nodes[0]] = 3; },
      [](NodeDataset* d) { d->train_nodes.push_back(1000); },
      [](NodeDataset* d) { d->test_nodes.push_back(30); },
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    NodeDataset bad = good;
    breaks[i](&bad);
    EXPECT_TRUE(RejectedAsInvalid(TrainNodeClassifier(bad, opt))) << i;
  }
}

TEST(TrainableTest, GraphClassifierRejectsMalformedDataset) {
  Rng rng(29);
  const GraphDataset good = SyntheticMolecules(10, &rng);
  TrainOptions opt;
  opt.epochs = 3;
  ASSERT_TRUE(TrainGraphClassifier(good, opt).ok());
  std::vector<std::function<void(GraphDataset*)>> breaks = {
      [](GraphDataset* d) { d->graphs.clear(); },
      [](GraphDataset* d) { d->labels.pop_back(); },
      [](GraphDataset* d) { d->labels.front() = 2; },
      [](GraphDataset* d) { d->labels.back() = 9; },
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    GraphDataset bad = good;
    breaks[i](&bad);
    EXPECT_TRUE(RejectedAsInvalid(TrainGraphClassifier(bad, opt))) << i;
  }
}

TEST(TrainableTest, LinkPredictorRejectsMalformedDataset) {
  Rng rng(31);
  const LinkDataset good = SyntheticSocialLinks(40, &rng);
  TrainOptions opt;
  opt.epochs = 3;
  ASSERT_TRUE(TrainLinkPredictor(good, opt).ok());
  std::vector<std::function<void(LinkDataset*)>> breaks = {
      [](LinkDataset* d) { d->train_pairs.clear(); },
      [](LinkDataset* d) { d->train_labels.pop_back(); },
      [](LinkDataset* d) { d->test_labels.push_back(0); },
      [](LinkDataset* d) { d->train_pairs[0].first = 40; },
      [](LinkDataset* d) { d->test_pairs[0].second = 1000; },
      [](LinkDataset* d) { d->train_labels[0] = 2; },
      [](LinkDataset* d) { d->test_labels[0] = 5; },
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    LinkDataset bad = good;
    breaks[i](&bad);
    EXPECT_TRUE(RejectedAsInvalid(TrainLinkPredictor(bad, opt))) << i;
  }
}

}  // namespace
}  // namespace gelc
