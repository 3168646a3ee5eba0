// Tests for the layered normal form (slide 55): normalized programs agree
// exactly with direct expression evaluation.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/normal_form.h"
#include "graph/generators.h"

namespace gelc {
namespace {

ExprPtr DegreeExpr() {
  return *Expr::Aggregate(theta::Sum(1), VarBit(1), *Expr::Constant({1.0}),
                          *Expr::Edge(0, 1));
}

TEST(NormalFormTest, RejectsNonFragmentExpressions) {
  ExprPtr g3 = *Expr::Apply(
      omega::Multiply(1),
      {*Expr::Apply(omega::Multiply(1), {*Expr::Edge(0, 1),
                                         *Expr::Edge(1, 2)}),
       *Expr::Edge(2, 0)});
  ExprPtr tri = *Expr::Aggregate(theta::Sum(1), VarBit(1) | VarBit(2),
                                 *Expr::Constant({1.0}), g3);
  EXPECT_FALSE(NormalFormProgram::Normalize(tri).ok());
}

TEST(NormalFormTest, DegreeSingleLayer) {
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(DegreeExpr());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_layers(), 1u);
  EXPECT_EQ(p->num_aggregates(), 1u);
  Graph star = StarGraph(3);
  Matrix out = *p->Run(star);
  EXPECT_EQ(out.At(0, 0), 3.0);
  EXPECT_EQ(out.At(1, 0), 1.0);
}

TEST(NormalFormTest, InterleavedFunctionsAndAggregates) {
  // relu(deg(x0) - 2) + deg(x0), free-form shape mixing Apply around and
  // after aggregation.
  ExprPtr deg = DegreeExpr();
  ExprPtr lin = *Expr::Apply(
      *omega::Linear({1}, Matrix({{1.0}}), Matrix({{-2.0}})), {deg});
  ExprPtr relu = *Expr::Apply(omega::ActivationFn(Activation::kReLU, 1),
                              {lin});
  ExprPtr total = *Expr::Apply(omega::Add(1), {relu, deg});
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(total);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_layers(), 1u);

  Graph g = StarGraph(4);
  Evaluator eval(g);
  Matrix direct = *eval.EvalVertex(total);
  Matrix layered = *p->Run(g);
  EXPECT_TRUE(direct.AllClose(layered, 1e-12));
}

TEST(NormalFormTest, NestedAggregatesBecomeLayers) {
  // Two rounds: sum over neighbors of (sum over their neighbors of 1).
  ExprPtr inner = *Expr::Aggregate(theta::Sum(1), VarBit(0),
                                   *Expr::Constant({1.0}),
                                   *Expr::Edge(1, 0));
  ExprPtr outer = *Expr::Aggregate(theta::Sum(1), VarBit(1), inner,
                                   *Expr::Edge(0, 1));
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(outer);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_layers(), 2u);
  EXPECT_EQ(p->num_aggregates(), 2u);

  Graph g = PathGraph(4);
  Evaluator eval(g);
  EXPECT_TRUE((*eval.EvalVertex(outer)).AllClose(*p->Run(g), 1e-12));
  EXPECT_NE(p->Describe().find("layer 2"), std::string::npos);
}

TEST(NormalFormTest, GlobalReadoutIsFinalStage) {
  ExprPtr readout = *Expr::Aggregate(theta::Sum(1), VarBit(0), DegreeExpr(),
                                     nullptr);
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(readout);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_layers(), 2u);
  Graph g = CycleGraph(5);
  Matrix out = *p->Run(g);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out.At(0, 0), 10.0);  // 2m
  Evaluator eval(g);
  EXPECT_EQ((*eval.EvalClosed(readout))[0], 10.0);
}

TEST(NormalFormTest, MeanAndMaxAggregatesSupported) {
  for (const ThetaPtr& t : {theta::Mean(1), theta::Max(1)}) {
    ExprPtr agg = *Expr::Aggregate(t, VarBit(1), *Expr::Label(0, 1),
                                   *Expr::Edge(0, 1));
    Result<NormalFormProgram> p = NormalFormProgram::Normalize(agg);
    ASSERT_TRUE(p.ok());
    Rng rng(3);
    Graph g = RandomGnp(8, 0.4, &rng);
    for (size_t v = 0; v < 8; ++v)
      g.mutable_features().At(v, 0) = static_cast<double>(v);
    Evaluator eval(g);
    EXPECT_TRUE((*eval.EvalVertex(agg)).AllClose(*p->Run(g), 1e-12))
        << t->name;
  }
}

// Property test: compiled GNN-101 expressions are MPNN-fragment, and their
// normal form agrees with direct evaluation and with the network itself.
class NormalFormGnnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NormalFormGnnTest, NormalizedCompiledGnnMatchesNetwork) {
  Rng rng(GetParam() * 31337);
  Gnn101Model model =
      *Gnn101Model::Random({1, 4, 4}, Activation::kTanh, 0.6, &rng);
  ExprPtr expr = *CompileGnn101ToGel(model);
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(expr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_layers(), model.num_layers());

  Graph g = RandomGnp(7 + rng.NextBounded(4), 0.4, &rng);
  Matrix network = *VertexEmbeddings(model, g);
  Matrix layered = *p->Run(g);
  Evaluator eval(g);
  Matrix direct = *eval.EvalVertex(expr);
  EXPECT_TRUE(network.AllClose(layered, 1e-9));
  EXPECT_TRUE(network.AllClose(direct, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormGnnTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace gelc
