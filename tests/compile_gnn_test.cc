// Tests for the GNN -> GEL compiler (slide 35's recipe): the compiled
// expression evaluates exactly like the network and lands in the MPNN
// fragment, certifying the color-refinement bound.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/analysis.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "graph/generators.h"

namespace gelc {
namespace {

TEST(CompileGnnTest, HandWeightsDegreeNetwork) {
  Gnn101Layer l;
  l.w1 = Matrix({{0.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  l.act = Activation::kIdentity;
  Gnn101Model model({l});
  ExprPtr expr = *CompileGnn101ToGel(model);
  EXPECT_TRUE(IsMpnnFragment(expr));
  Graph star = StarGraph(5);
  Evaluator eval(star);
  Matrix out = *eval.EvalVertex(expr);
  EXPECT_EQ(out.At(0, 0), 5.0);
  EXPECT_EQ(out.At(1, 0), 1.0);
}

class CompileAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompileAgreementTest, ExpressionMatchesNetworkOnRandomGraphs) {
  Rng rng(GetParam() * 65537);
  size_t layers = 1 + rng.NextBounded(3);
  std::vector<size_t> widths = {2};
  for (size_t i = 0; i < layers; ++i) widths.push_back(3 + rng.NextBounded(3));
  Gnn101Model model =
      *Gnn101Model::Random(widths, Activation::kReLU, 0.7, &rng);
  ExprPtr expr = *CompileGnn101ToGel(model);

  ExprAnalysis a = Analyze(expr);
  EXPECT_TRUE(a.is_mpnn_fragment);
  EXPECT_EQ(a.width, 2u);
  EXPECT_EQ(a.aggregation_depth, layers);

  // Random labelled graph with 2-dim features.
  size_t n = 6 + rng.NextBounded(6);
  Graph g(n, 2);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v)
      if (rng.NextBernoulli(0.35)) {
          ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
          static_cast<VertexId>(v))
          .ok());
      }
    g.SetOneHotFeature(static_cast<VertexId>(u), rng.NextBounded(2));
  }
  Matrix network = *VertexEmbeddings(model, g);
  Evaluator eval(g);
  Matrix expression = *eval.EvalVertex(expr);
  EXPECT_TRUE(network.AllClose(expression, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileAgreementTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CompileGnnTest, GraphReadoutMatchesNetwork) {
  Rng rng(99);
  Gnn101Model model =
      *Gnn101Model::Random({1, 4, 4}, Activation::kTanh, 0.6, &rng);
  ExprPtr expr = *CompileGnn101GraphToGel(model);
  EXPECT_EQ(expr->free_vars(), 0u);
  EXPECT_TRUE(IsMpnnFragment(expr));
  Graph g = RandomGnp(9, 0.4, &rng);
  Matrix network = *GraphEmbedding(model, g);
  Evaluator eval(g);
  std::vector<double> expression = *eval.EvalClosed(expr);
  ASSERT_EQ(expression.size(), network.cols());
  for (size_t j = 0; j < expression.size(); ++j)
    EXPECT_NEAR(expression[j], network.At(0, j), 1e-9);
}

TEST(CompileGnnTest, GraphReadoutRequiresReadout) {
  Gnn101Layer l;
  l.w1 = Matrix({{1.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  Gnn101Model model({l});
  EXPECT_FALSE(CompileGnn101GraphToGel(model).ok());
}

TEST(CompileGnnTest, GinCompilesAndAgrees) {
  Rng rng(123);
  GinModel model = *GinModel::Random({2, 4}, 0.6, &rng);
  ExprPtr expr = *CompileGinToGel(model);
  EXPECT_TRUE(IsMpnnFragment(expr));

  Graph g(7, 2);
  for (size_t u = 0; u < 7; ++u) {
    for (size_t v = u + 1; v < 7; ++v)
      if (rng.NextBernoulli(0.4)) {
          ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
          static_cast<VertexId>(v))
          .ok());
      }
    g.SetOneHotFeature(static_cast<VertexId>(u), rng.NextBounded(2));
  }
  Matrix network = *VertexEmbeddings(model, g);
  Evaluator eval(g);
  Matrix expression = *eval.EvalVertex(expr);
  EXPECT_TRUE(network.AllClose(expression, 1e-9));
}

TEST(CompileGnnTest, CompiledExpressionSharesLayerSubtrees) {
  // The (t, variable) memo keeps the DAG linear in the number of layers:
  // both the self and the neighbor branch of layer t reference the SAME
  // node for layer t-1 of each variable.
  Rng rng(7);
  Gnn101Model model =
      *Gnn101Model::Random({1, 3, 3, 3}, Activation::kReLU, 0.5, &rng);
  ExprPtr expr = *CompileGnn101ToGel(model);
  // Tree size counts every occurrence; a naive non-shared build would be
  // exponential in layers (> 2^3 * base). The DAG keeps distinct nodes
  // small, but TreeSize still unfolds shares — sanity-check it is finite
  // and the expression evaluates in milliseconds thanks to memoized
  // evaluation.
  Graph g = CycleGraph(6);
  Evaluator eval(g);
  Matrix a = *eval.EvalVertex(expr);
  Matrix b = *VertexEmbeddings(model, g);
  EXPECT_TRUE(a.AllClose(b, 1e-9));
}

}  // namespace
}  // namespace gelc
