// Tests for multi-relational graphs, relational color refinement and
// relational GNNs (slide 74: "Weisfeiler and Leman Go Relational").
#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/relational.h"
#include "wl/color_refinement.h"

namespace gelc {
namespace {

// Two 2-relation graphs on a 4-cycle skeleton that collapse to the same
// union graph (C4) but color the edges differently:
//   A: relation 0 = {01, 23}, relation 1 = {12, 30}  (alternating)
//   B: relation 0 = {01, 12}, relation 1 = {23, 30}  (two adjacent each)
std::pair<RelationalGraph, RelationalGraph> AlternatingVsAdjacent() {
  RelationalGraph a(4, 2, 1);
  EXPECT_TRUE(a.AddEdge(0, 0, 1).ok());
  EXPECT_TRUE(a.AddEdge(0, 2, 3).ok());
  EXPECT_TRUE(a.AddEdge(1, 1, 2).ok());
  EXPECT_TRUE(a.AddEdge(1, 3, 0).ok());
  RelationalGraph b(4, 2, 1);
  EXPECT_TRUE(b.AddEdge(0, 0, 1).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, 2).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, 3).ok());
  EXPECT_TRUE(b.AddEdge(1, 3, 0).ok());
  for (VertexId v = 0; v < 4; ++v) {
    a.SetOneHotFeature(v, 0);
    b.SetOneHotFeature(v, 0);
  }
  return {std::move(a), std::move(b)};
}

TEST(RelationalGraphTest, EdgeApiAndValidation) {
  RelationalGraph g(3, 2, 1);
  ASSERT_TRUE(g.AddEdge(0, 0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 0));
  EXPECT_FALSE(g.HasEdge(1, 0, 1));  // other relation untouched
  EXPECT_EQ(g.AddEdge(0, 0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(5, 0, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(0, 0, 9).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(0, 1, 1).code(), StatusCode::kInvalidArgument);
  // The same vertex pair may appear in several relations.
  ASSERT_TRUE(g.AddEdge(1, 0, 1).ok());
  EXPECT_TRUE(g.HasEdge(1, 0, 1));
}

TEST(RelationalGraphTest, CollapseAndProject) {
  auto [a, b] = AlternatingVsAdjacent();
  Graph ua = a.CollapseRelations();
  EXPECT_EQ(ua.num_edges(), 4u);   // the C4 skeleton
  Graph r0 = *a.RelationGraph(0);
  EXPECT_EQ(r0.num_edges(), 2u);
  EXPECT_TRUE(r0.HasEdge(0, 1));
  EXPECT_FALSE(r0.HasEdge(1, 2));
  EXPECT_FALSE(a.RelationGraph(7).ok());
  (void)b;
}

TEST(RelationalCrTest, SeparatesWhatCollapsedCrCannot) {
  // The headline phenomenon of slide 74's reference: relation types carry
  // information the collapsed graph loses.
  auto [a, b] = AlternatingVsAdjacent();
  // Collapsed graphs are both plain C4: CR-equivalent.
  EXPECT_TRUE(CrEquivalentGraphs(a.CollapseRelations(),
                                 b.CollapseRelations()));
  // Relational CR tells them apart (vertex 1 of B has two relation-0
  // neighbors, no vertex of A does).
  EXPECT_FALSE(RelationalCrEquivalent(a, b));
}

TEST(RelationalCrTest, InvariantUnderPermutation) {
  Rng rng(3);
  auto [a, b] = AlternatingVsAdjacent();
  for (int trial = 0; trial < 5; ++trial) {
    RelationalGraph pa = *a.Permuted(rng.Permutation(4));
    EXPECT_TRUE(RelationalCrEquivalent(a, pa));
    EXPECT_FALSE(RelationalCrEquivalent(b, pa));
  }
}

TEST(RelationalCrTest, SingleRelationMatchesPlainCr) {
  // With one relation, relational CR degenerates to plain CR.
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    size_t n = 6 + rng.NextBounded(4);
    RelationalGraph rg(n, 1, 1);
    Graph g(n, 1);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = u + 1; v < n; ++v) {
        if (rng.NextBernoulli(0.4)) {
          ASSERT_TRUE(rg.AddEdge(0, static_cast<VertexId>(u),
                                 static_cast<VertexId>(v))
                          .ok());
          ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
                                static_cast<VertexId>(v))
                          .ok());
        }
      }
      rg.SetOneHotFeature(static_cast<VertexId>(u), 0);
      g.SetOneHotFeature(static_cast<VertexId>(u), 0);
    }
    CrColoring rc = RunRelationalColorRefinement({&rg});
    CrColoring c = RunColorRefinement({&g});
    // Same partition (colors are interned separately; compare pairwise).
    for (size_t x = 0; x < n; ++x)
      for (size_t y = x + 1; y < n; ++y)
        EXPECT_EQ(rc.stable[0][x] == rc.stable[0][y],
                  c.stable[0][x] == c.stable[0][y]);
  }
}

TEST(RelationalGnnTest, ShapesAndValidation) {
  Rng rng(7);
  Result<RelationalGnn> model = RelationalGnn::Random(
      {1, 5}, 2, Activation::kTanh, 0.5, &rng);
  ASSERT_TRUE(model.ok());
  auto [a, b] = AlternatingVsAdjacent();
  Matrix f = *model->VertexEmbeddings(a);
  EXPECT_EQ(f.rows(), 4u);
  EXPECT_EQ(f.cols(), 5u);
  // Relation-count mismatch.
  RelationalGraph three(4, 3, 1);
  EXPECT_FALSE(model->VertexEmbeddings(three).ok());
  EXPECT_FALSE(
      RelationalGnn::Random({1}, 2, Activation::kTanh, 0.5, &rng).ok());
  EXPECT_FALSE(
      RelationalGnn::Random({1, 4}, 0, Activation::kTanh, 0.5, &rng).ok());
  (void)b;
}

TEST(RelationalGnnTest, InvarianceUnderPermutation) {
  Rng rng(9);
  RelationalGnn model =
      *RelationalGnn::Random({1, 5, 5}, 2, Activation::kTanh, 0.6, &rng);
  auto [a, b] = AlternatingVsAdjacent();
  for (int trial = 0; trial < 4; ++trial) {
    RelationalGraph pa = *a.Permuted(rng.Permutation(4));
    EXPECT_TRUE(
        (*model.GraphEmbedding(a)).AllClose(*model.GraphEmbedding(pa), 1e-9));
  }
  (void)b;
}

TEST(RelationalGnnTest, SeparatesRelationStructure) {
  // Random relational GNNs separate A from B although their collapsed
  // graphs are CR-equivalent — the relational rung sits above plain CR.
  auto [a, b] = AlternatingVsAdjacent();
  Rng rng(11);
  bool separated = false;
  for (int trial = 0; trial < 10 && !separated; ++trial) {
    RelationalGnn model =
        *RelationalGnn::Random({1, 5, 5}, 2, Activation::kTanh, 0.8, &rng);
    separated = (*model.GraphEmbedding(a))
                    .MaxAbsDiff(*model.GraphEmbedding(b)) > 1e-6;
  }
  EXPECT_TRUE(separated);
}

TEST(RelationalGnnTest, BoundedByRelationalCr) {
  // Conversely, relational-CR-equivalent graphs get identical relational
  // GNN embeddings: permuted copies are the canonical example.
  Rng rng(13);
  auto [a, b] = AlternatingVsAdjacent();
  RelationalGraph pa = *a.Permuted(rng.Permutation(4));
  ASSERT_TRUE(RelationalCrEquivalent(a, pa));
  for (int trial = 0; trial < 5; ++trial) {
    RelationalGnn model =
        *RelationalGnn::Random({1, 6, 6}, 2, Activation::kTanh, 0.8, &rng);
    EXPECT_TRUE(
        (*model.GraphEmbedding(a)).AllClose(*model.GraphEmbedding(pa),
                                            1e-9));
  }
  (void)b;
}

}  // namespace
}  // namespace gelc
