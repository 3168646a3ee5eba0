// Tests for the zoo -> GEL compilers beyond GNN-101: general MPNNs (all
// three aggregations) and GraphSAGE (slide 48: "existing architectures
// can be easily cast as MPNN(Ω,Θ) expressions").
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/analysis.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/normal_form.h"
#include "graph/generators.h"

namespace gelc {
namespace {

Graph RandomLabelled(size_t n, size_t dim, Rng* rng) {
  Graph g(n, dim);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v)
      if (rng->NextBernoulli(0.4)) {
          EXPECT_TRUE(g.AddEdge(static_cast<VertexId>(u),
          static_cast<VertexId>(v))
          .ok());
      }
    g.SetOneHotFeature(static_cast<VertexId>(u), rng->NextBounded(dim));
  }
  return g;
}

class MpnnCompileTest : public ::testing::TestWithParam<Aggregation> {};

TEST_P(MpnnCompileTest, ExpressionMatchesNetwork) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  MpnnModel model = *MpnnModel::Random({2, 4, 4}, GetParam(), 0.6, &rng);
  ExprPtr vertex_expr = *CompileMpnnToGel(model);
  EXPECT_TRUE(IsMpnnFragment(vertex_expr));
  EXPECT_EQ(Analyze(vertex_expr).width, 2u);

  ExprPtr graph_expr = *CompileMpnnGraphToGel(model);
  EXPECT_EQ(graph_expr->free_vars(), 0u);

  for (int trial = 0; trial < 3; ++trial) {
    Graph g = RandomLabelled(6 + rng.NextBounded(5), 2, &rng);
    Matrix network = *VertexEmbeddings(model, g);
    Evaluator eval(g);
    Matrix expression = *eval.EvalVertex(vertex_expr);
    EXPECT_TRUE(network.AllClose(expression, 1e-9))
        << AggregationName(GetParam());

    Matrix graph_net = *GraphEmbedding(model, g);
    std::vector<double> graph_expr_val = *eval.EvalClosed(graph_expr);
    for (size_t j = 0; j < graph_expr_val.size(); ++j)
      EXPECT_NEAR(graph_expr_val[j], graph_net.At(0, j), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggregations, MpnnCompileTest,
                         ::testing::Values(Aggregation::kSum,
                                           Aggregation::kMean,
                                           Aggregation::kMax));

TEST(MpnnCompileTest, NormalFormOfCompiledMeanMpnn) {
  Rng rng(41);
  MpnnModel model =
      *MpnnModel::Random({2, 3, 3}, Aggregation::kMean, 0.6, &rng);
  ExprPtr expr = *CompileMpnnToGel(model);
  NormalFormProgram program = *NormalFormProgram::Normalize(expr);
  EXPECT_EQ(program.num_layers(), 2u);
  Graph g = RandomLabelled(8, 2, &rng);
  EXPECT_TRUE((*VertexEmbeddings(model, g)).AllClose(*program.Run(g), 1e-9));
}

TEST(MpnnCompileTest, GraphReadoutRequiresReadout) {
  MpnnLayer layer;
  layer.agg = Aggregation::kSum;
  MlpLayer ml;
  ml.w = Matrix::Identity(2);
  ml.b = Matrix(1, 2);
  layer.update = Mlp({ml});
  MpnnModel model({layer});
  EXPECT_FALSE(CompileMpnnGraphToGel(model).ok());
}

TEST(GraphSageCompileTest, ExpressionMatchesNetwork) {
  Rng rng(43);
  GraphSageModel model = *GraphSageModel::Random({2, 4, 4}, 0.6, &rng);
  ExprPtr expr = *CompileGraphSageToGel(model);
  EXPECT_TRUE(IsMpnnFragment(expr));
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = RandomLabelled(7, 2, &rng);
    Matrix network = *VertexEmbeddings(model, g);
    Evaluator eval(g);
    Matrix expression = *eval.EvalVertex(expr);
    EXPECT_TRUE(network.AllClose(expression, 1e-9));
  }
}

TEST(GraphSageCompileTest, CertifiedBoundIsColorRefinement) {
  // The whole point of slide 35: casting GraphSAGE into the language
  // mechanically certifies its CR upper bound.
  Rng rng(47);
  GraphSageModel model = *GraphSageModel::Random({1, 4}, 0.6, &rng);
  ExprPtr expr = *CompileGraphSageToGel(model);
  ExprAnalysis a = Analyze(expr);
  EXPECT_TRUE(a.is_mpnn_fragment);
  EXPECT_NE(a.separation_bound.find("color refinement"), std::string::npos);
}

}  // namespace
}  // namespace gelc
