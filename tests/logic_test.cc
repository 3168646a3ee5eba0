// Tests for graded modal logic and its compilation to GNN-101 weights
// (slide 54, Barceló et al.).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "graph/generators.h"
#include "logic/gml.h"
#include "logic/gml_to_gnn.h"

namespace gelc {
namespace {

// A labelled test graph: path 0-1-2-3 with labels A,B,A,B (2-dim one-hot).
Graph LabelledPath() {
  Graph g(4, 2);
  for (VertexId v = 0; v < 3; ++v) {
    Status s = g.AddEdge(v, v + 1);
    EXPECT_TRUE(s.ok());
  }
  g.SetOneHotFeature(0, 0);
  g.SetOneHotFeature(1, 1);
  g.SetOneHotFeature(2, 0);
  g.SetOneHotFeature(3, 1);
  return g;
}

TEST(GmlTest, TrueHoldsEverywhere) {
  Graph g = LabelledPath();
  std::vector<bool> v = *EvaluateGml(GmlFormula::True(), g);
  EXPECT_EQ(v, std::vector<bool>(4, true));
}

TEST(GmlTest, LabelAtom) {
  Graph g = LabelledPath();
  std::vector<bool> a = *EvaluateGml(GmlFormula::Label(0), g);
  EXPECT_EQ(a, (std::vector<bool>{true, false, true, false}));
}

TEST(GmlTest, BooleanConnectives) {
  Graph g = LabelledPath();
  GmlPtr la = GmlFormula::Label(0);
  GmlPtr lb = GmlFormula::Label(1);
  EXPECT_EQ(*EvaluateGml(GmlFormula::Not(la), g),
            (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(*EvaluateGml(GmlFormula::And(la, lb), g),
            (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(*EvaluateGml(GmlFormula::Or(la, lb), g),
            (std::vector<bool>{true, true, true, true}));
}

TEST(GmlTest, GradedDiamondCountsNeighbors) {
  Graph g = LabelledPath();
  // "at least 2 neighbors with label A": only vertices 1 and... vertex 1
  // has neighbors {0, 2} both A; vertex 3 has neighbor {2} A only.
  GmlPtr f = GmlFormula::AtLeast(2, GmlFormula::Label(0));
  EXPECT_EQ(*EvaluateGml(f, g),
            (std::vector<bool>{false, true, false, false}));
  // "at least 1 neighbor with label B": vertices 0 and 2 (neighbor 1/3).
  GmlPtr f1 = GmlFormula::AtLeast(1, GmlFormula::Label(1));
  EXPECT_EQ(*EvaluateGml(f1, g),
            (std::vector<bool>{true, false, true, false}));
}

TEST(GmlTest, NestedModality) {
  Graph g = LabelledPath();
  // ◇≥1 ◇≥2 lab_A: a neighbor having >=2 A-neighbors, i.e. a neighbor of
  // vertex 1: vertices 0 and 2.
  GmlPtr f = GmlFormula::AtLeast(
      1, GmlFormula::AtLeast(2, GmlFormula::Label(0)));
  EXPECT_EQ(*EvaluateGml(f, g),
            (std::vector<bool>{true, false, true, false}));
}

TEST(GmlTest, LabelIndexValidation) {
  Graph g = LabelledPath();
  EXPECT_FALSE(EvaluateGml(GmlFormula::Label(5), g).ok());
}

TEST(GmlTest, HeightAndDim) {
  GmlPtr f = GmlFormula::AtLeast(
      1, GmlFormula::And(GmlFormula::Label(0),
                         GmlFormula::Not(GmlFormula::Label(1))));
  EXPECT_EQ(f->Height(), 4u);
  EXPECT_EQ(f->MinFeatureDim(), 2u);
}

TEST(GmlTest, ToStringRendering) {
  GmlPtr f = GmlFormula::AtLeast(2, GmlFormula::Or(GmlFormula::Label(0),
                                                   GmlFormula::True()));
  EXPECT_EQ(f->ToString(), "<>2 (lab_0 | true)");
}

TEST(GmlToGnnTest, SingleLabelFormula) {
  Graph g = LabelledPath();
  Result<CompiledGmlGnn> compiled = CompileGmlToGnn(GmlFormula::Label(1), 2);
  ASSERT_TRUE(compiled.ok());
  Matrix f = *VertexEmbeddings(compiled->model, g);
  std::vector<bool> truth = *EvaluateGml(GmlFormula::Label(1), g);
  for (size_t v = 0; v < 4; ++v)
    EXPECT_EQ(f.At(v, compiled->output_coordinate) == 1.0, truth[v]);
}

TEST(GmlToGnnTest, DiamondFormula) {
  Graph g = LabelledPath();
  GmlPtr formula = GmlFormula::AtLeast(2, GmlFormula::Label(0));
  Result<CompiledGmlGnn> compiled = CompileGmlToGnn(formula, 2);
  ASSERT_TRUE(compiled.ok());
  Matrix f = *VertexEmbeddings(compiled->model, g);
  std::vector<bool> truth = *EvaluateGml(formula, g);
  for (size_t v = 0; v < 4; ++v)
    EXPECT_EQ(f.At(v, compiled->output_coordinate) == 1.0, truth[v]) << v;
}

TEST(GmlToGnnTest, SharedSubformulasCompileOnce) {
  GmlPtr la = GmlFormula::Label(0);
  GmlPtr f = GmlFormula::And(la, la);
  Result<CompiledGmlGnn> compiled = CompileGmlToGnn(f, 2);
  ASSERT_TRUE(compiled.ok());
  Graph g = LabelledPath();
  Matrix out = *VertexEmbeddings(compiled->model, g);
  for (size_t v = 0; v < 4; ++v)
    EXPECT_EQ(out.At(v, compiled->output_coordinate),
              g.features().At(v, 0));
}

TEST(GmlToGnnTest, ValidatesFeatureDim) {
  EXPECT_FALSE(CompileGmlToGnn(GmlFormula::Label(3), 2).ok());
  EXPECT_FALSE(CompileGmlToGnn(nullptr, 2).ok());
}

// Property test: on random labelled graphs, the compiled GNN agrees with
// the model checker on random formulas — the constructive half of
// "MPNNs express all of graded modal logic" (slide 54).
class GmlGnnAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GmlGnnAgreementTest, CompiledGnnMatchesModelChecker) {
  Rng rng(GetParam() * 104729);
  constexpr size_t kLabels = 3;
  // Random labelled graph.
  size_t n = 6 + rng.NextBounded(8);
  Graph g = RandomGnp(n, 0.3, &rng);
  Graph labelled(n, kLabels);
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (v < u) continue;
      ASSERT_TRUE(labelled.AddEdge(static_cast<VertexId>(u), v).ok());
    }
    labelled.SetOneHotFeature(static_cast<VertexId>(u),
                              rng.NextBounded(kLabels));
  }
  for (int trial = 0; trial < 5; ++trial) {
    GmlPtr formula =
        GmlFormula::Random(2 + rng.NextBounded(4), kLabels, 3, &rng);
    Result<CompiledGmlGnn> compiled = CompileGmlToGnn(formula, kLabels);
    ASSERT_TRUE(compiled.ok());
    Matrix f = *VertexEmbeddings(compiled->model, labelled);
    std::vector<bool> truth = *EvaluateGml(formula, labelled);
    for (size_t v = 0; v < n; ++v) {
      EXPECT_EQ(f.At(v, compiled->output_coordinate) == 1.0, truth[v])
          << "formula " << formula->ToString() << " at vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GmlGnnAgreementTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gelc
