// Cross-module integration tests: small-scale versions of the paper's
// headline claims, wiring WL, hom counting, GNNs, logic and the GEL
// language together.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/analysis.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/normal_form.h"
#include "gnn/gnn101.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "hom/trees.h"
#include "logic/gml.h"
#include "logic/gml_to_gnn.h"
#include "separation/oracles.h"
#include "wl/color_refinement.h"
#include "wl/isomorphism.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

// Slide 26: ρ(GNN101) = ρ(CR), sampled over random graph pairs. A random
// GNN separating a pair implies CR separates it (no false positives), and
// on CR-separated pairs random tanh GNNs separate with overwhelming
// probability at these sizes.
class Gnn101EqualsCrTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Gnn101EqualsCrTest, SampledEquality) {
  Rng rng(GetParam() * 2713);
  Graph a = RandomGnp(7, 0.4, &rng);
  Graph b = RandomGnp(7, 0.4, &rng);
  bool cr = CrEquivalentGraphs(a, b);
  OraclePtr probe = MakeGnn101ProbeOracle(12, {8, 8}, 1e-6,
                                          GetParam() * 17);
  bool gnn = *probe->Equivalent(a, b);
  EXPECT_EQ(cr, gnn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gnn101EqualsCrTest,
                         ::testing::Range<uint64_t>(1, 15));

// Slide 27 pipeline: CR verdicts, tree-hom verdicts and GNN verdicts all
// coincide on the classic hard pair.
TEST(IntegrationTest, ThreeCharacterizationsAgree) {
  auto [c6, two_c3] = Cr_HardPair();
  OraclePtr cr = MakeCrOracle();
  OraclePtr hom = MakeTreeHomOracle(7);
  OraclePtr gnn = MakeGnn101ProbeOracle(15, {8, 8}, 1e-6, 5);
  OraclePtr iso = MakeIsomorphismOracle();
  EXPECT_TRUE(*cr->Equivalent(c6, two_c3));
  EXPECT_TRUE(*hom->Equivalent(c6, two_c3));
  EXPECT_TRUE(*gnn->Equivalent(c6, two_c3));
  EXPECT_FALSE(*iso->Equivalent(c6, two_c3));
}

// Slide 66 (finite slice): a GEL^3 expression suite separates pairs that
// 2-WL separates while GEL^2-style MPNN probes cannot.
TEST(IntegrationTest, Gel3SeparatesBeyondMpnn) {
  auto [c6, two_c3] = Cr_HardPair();
  ExprPtr tri_guard = *Expr::Apply(
      omega::Multiply(1),
      {*Expr::Apply(omega::Multiply(1), {*Expr::Edge(0, 1),
                                         *Expr::Edge(1, 2)}),
       *Expr::Edge(2, 0)});
  ExprPtr triangles =
      *Expr::Aggregate(theta::Sum(1), VarBit(0) | VarBit(1) | VarBit(2),
                       *Expr::Constant({1.0}), tri_guard);
  EXPECT_EQ(VariableWidth(triangles), 3u);
  OraclePtr gel3 = MakeGelSuiteOracle({triangles}, 1e-9, "GEL3");
  OraclePtr mpnn = MakeGnn101ProbeOracle(15, {8, 8}, 1e-6, 11);
  EXPECT_FALSE(*gel3->Equivalent(c6, two_c3));
  EXPECT_TRUE(*mpnn->Equivalent(c6, two_c3));
  // And 2-WL (slide 66: ρ(2-WL) = ρ(GEL^3)) also separates the pair.
  EXPECT_FALSE(*MakeKwlOracle(2)->Equivalent(c6, two_c3));
}

// GML -> GNN -> GEL round trip: compile a formula to GNN weights, compile
// those weights to a GEL expression, and check all three semantics agree.
TEST(IntegrationTest, LogicToGnnToGelRoundTrip) {
  Rng rng(29);
  constexpr size_t kLabels = 2;
  GmlPtr formula = GmlFormula::AtLeast(
      2, GmlFormula::Or(GmlFormula::Label(0),
                        GmlFormula::AtLeast(1, GmlFormula::Label(1))));
  CompiledGmlGnn compiled = *CompileGmlToGnn(formula, kLabels);
  ExprPtr expr = *CompileGnn101ToGel(compiled.model);
  EXPECT_TRUE(IsMpnnFragment(expr));

  for (int trial = 0; trial < 5; ++trial) {
    size_t n = 6 + rng.NextBounded(6);
    Graph g(n, kLabels);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = u + 1; v < n; ++v)
        if (rng.NextBernoulli(0.3)) {
            ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
            static_cast<VertexId>(v))
            .ok());
        }
      g.SetOneHotFeature(static_cast<VertexId>(u), rng.NextBounded(kLabels));
    }
    std::vector<bool> truth = *EvaluateGml(formula, g);
    Matrix network = *VertexEmbeddings(compiled.model, g);
    Evaluator eval(g);
    Matrix expression = *eval.EvalVertex(expr);
    for (size_t v = 0; v < n; ++v) {
      double net = network.At(v, compiled.output_coordinate);
      double exp = expression.At(v, compiled.output_coordinate);
      EXPECT_EQ(net == 1.0, truth[v]);
      EXPECT_NEAR(net, exp, 1e-12);
    }
  }
}

// Invariance (slide 11) across every embedding family in one sweep.
class InvarianceSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvarianceSweepTest, AllEmbeddingsInvariant) {
  Rng rng(GetParam() * 523);
  size_t n = 8;
  Graph g = RandomGnp(n, 0.4, &rng);
  std::vector<size_t> perm = rng.Permutation(n);
  Graph h = g.Permuted(perm).value();

  // CR signatures.
  CrColoring cr = RunColorRefinement({&g, &h});
  EXPECT_EQ(cr.GraphSignature(0), cr.GraphSignature(1));
  // 2-WL signatures.
  KwlColoring kwl = *RunKwl({&g, &h}, 2);
  EXPECT_EQ(kwl.GraphSignature(0), kwl.GraphSignature(1));
  // Tree hom profiles.
  std::vector<Graph> trees = *AllTreesUpTo(5);
  EXPECT_EQ(*TreeHomProfile(g, trees), *TreeHomProfile(h, trees));
  // Random GNN graph embedding.
  Gnn101Model model =
      *Gnn101Model::Random({1, 6, 6}, Activation::kSigmoid, 0.7, &rng);
  EXPECT_TRUE(
      (*GraphEmbedding(model, g)).AllClose(*GraphEmbedding(model, h), 1e-9));
  // Compiled GEL expression (closed).
  ExprPtr closed = *CompileGnn101GraphToGel(model);
  Evaluator evg(g);
  Evaluator evh(h);
  std::vector<double> vg = *evg.EvalClosed(closed);
  std::vector<double> vh = *evh.EvalClosed(closed);
  for (size_t j = 0; j < vg.size(); ++j) EXPECT_NEAR(vg[j], vh[j], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceSweepTest,
                         ::testing::Range<uint64_t>(1, 9));

// The CFI pair over a cycle behaves per theory end to end: non-isomorphic,
// CR-blind, 2-WL-separated, and GNN probes stay blind too.
TEST(IntegrationTest, CfiPipelineConsistent) {
  Result<std::pair<Graph, Graph>> pair = CfiPair(CycleGraph(5));
  ASSERT_TRUE(pair.ok());
  const Graph& a = pair->first;
  const Graph& b = pair->second;
  EXPECT_FALSE(*AreIsomorphic(a, b));
  EXPECT_TRUE(CrEquivalentGraphs(a, b));
  EXPECT_FALSE(*KwlEquivalentGraphs(a, b, 2));
  OraclePtr probe = MakeGnn101ProbeOracle(10, {6, 6}, 1e-6, 3);
  EXPECT_TRUE(*probe->Equivalent(a, b));
}

// Normal-form pipeline on a trained-like model: normalize the compiled
// expression of a random 3-layer GNN and check exact agreement.
TEST(IntegrationTest, NormalFormOfDeepModel) {
  Rng rng(31);
  Gnn101Model model =
      *Gnn101Model::Random({1, 5, 5, 5}, Activation::kReLU, 0.5, &rng);
  ExprPtr expr = *CompileGnn101ToGel(model);
  NormalFormProgram program = *NormalFormProgram::Normalize(expr);
  EXPECT_EQ(program.num_layers(), 3u);
  Graph g = PetersenGraph();
  EXPECT_TRUE((*VertexEmbeddings(model, g)).AllClose(*program.Run(g), 1e-9));
}

}  // namespace
}  // namespace gelc
