// Tests for color refinement and folklore k-WL (slides 50, 65), and the
// edge cases of the refinement loop every WL variant runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/relational.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"
#include "wl/isomorphism.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

TEST(CrTest, RegularGraphCollapsesToOneColor) {
  Graph c = CycleGraph(7);
  EXPECT_EQ(CrPartitionSize(c), 1u);
}

TEST(CrTest, PathDiscriminatesByDistanceToEnds) {
  // P5 vertices: 0-1-2-3-4. Stable classes: {0,4}, {1,3}, {2}.
  Graph p = PathGraph(5);
  CrColoring c = RunColorRefinement({&p});
  EXPECT_EQ(c.stable[0][0], c.stable[0][4]);
  EXPECT_EQ(c.stable[0][1], c.stable[0][3]);
  EXPECT_NE(c.stable[0][0], c.stable[0][1]);
  EXPECT_NE(c.stable[0][1], c.stable[0][2]);
  EXPECT_EQ(CrPartitionSize(p), 3u);
}

TEST(CrTest, InitialLabelsRespected) {
  Graph a = CycleGraph(4);
  Graph b = CycleGraph(4);
  b.mutable_features().At(0, 0) = 5.0;
  EXPECT_FALSE(CrEquivalentGraphs(a, b));
}

TEST(CrTest, C6VsTwoTrianglesEquivalent) {
  auto [c6, two_c3] = Cr_HardPair();
  EXPECT_TRUE(CrEquivalentGraphs(c6, two_c3));
  // ... although they are not isomorphic.
  EXPECT_FALSE(*AreIsomorphic(c6, two_c3));
}

TEST(CrTest, SrgPairEquivalent) {
  auto [shrikhande, rook] = Srg16Pair();
  EXPECT_TRUE(CrEquivalentGraphs(shrikhande, rook));
}

TEST(CrTest, DistinguishesDifferentDegreeSequences) {
  EXPECT_FALSE(CrEquivalentGraphs(PathGraph(4), StarGraph(3)));
  EXPECT_FALSE(CrEquivalentGraphs(CycleGraph(6), PathGraph(6)));
}

TEST(CrTest, VertexLevelEquivalence) {
  Graph p = PathGraph(5);
  EXPECT_TRUE(CrEquivalentVertices(p, 0, p, 4));
  EXPECT_FALSE(CrEquivalentVertices(p, 0, p, 2));
  // Endpoints of same-length paths in different graphs match.
  Graph q = PathGraph(5);
  EXPECT_TRUE(CrEquivalentVertices(p, 0, q, 4));
}

TEST(CrTest, InvariantUnderPermutation) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = RandomGnp(12, 0.3, &rng);
    Graph h = g.Permuted(rng.Permutation(12)).value();
    EXPECT_TRUE(CrEquivalentGraphs(g, h));
  }
}

TEST(CrTest, HistoryRefines) {
  Graph p = PathGraph(6);
  CrColoring c = RunColorRefinement({&p});
  // The number of distinct colors is non-decreasing over rounds.
  size_t prev = 0;
  for (const auto& round : c.history) {
    std::set<uint64_t> distinct(round[0].begin(), round[0].end());
    EXPECT_GE(distinct.size(), prev);
    prev = distinct.size();
  }
  EXPECT_GE(c.rounds, 1u);
}

TEST(CrTest, MaxRoundsBoundsWork) {
  Graph p = PathGraph(9);
  CrColoring one = RunColorRefinement({&p}, /*max_rounds=*/1);
  EXPECT_EQ(one.rounds, 1u);
  // After one round colors encode degree only: 2 classes.
  std::set<uint64_t> distinct(one.stable[0].begin(), one.stable[0].end());
  EXPECT_EQ(distinct.size(), 2u);
}

TEST(KwlTest, InvalidKRejected) {
  Graph g = PathGraph(3);
  EXPECT_FALSE(RunKwl({&g}, 0).ok());
  EXPECT_FALSE(RunKwl({&g}, 5).ok());
}

TEST(KwlTest, KOneMatchesColorRefinement) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<bool> r = KwlEquivalentGraphs(c6, two_c3, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  Result<bool> r2 = KwlEquivalentGraphs(PathGraph(4), StarGraph(3), 1);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(KwlTest, TwoWlSeparatesC6FromTwoTriangles) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<bool> r = KwlEquivalentGraphs(c6, two_c3, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(KwlTest, TwoWlBlindOnSrgPair) {
  auto [shrikhande, rook] = Srg16Pair();
  Result<bool> r = KwlEquivalentGraphs(shrikhande, rook, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r) << "folklore 2-WL must not separate srg(16,6,2,2) graphs";
}

TEST(KwlTest, ThreeWlSeparatesSrgPair) {
  auto [shrikhande, rook] = Srg16Pair();
  Result<bool> r = KwlEquivalentGraphs(shrikhande, rook, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r) << "folklore 3-WL must separate Shrikhande from Rook";
}

TEST(KwlTest, MinimalSeparatingKMatchesHierarchy) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<size_t> k1 = MinimalSeparatingK(c6, two_c3, 3);
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(*k1, 2u);

  auto [shrikhande, rook] = Srg16Pair();
  Result<size_t> k2 = MinimalSeparatingK(shrikhande, rook, 3);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(*k2, 3u);

  // Isomorphic graphs are never separated.
  Rng rng(5);
  Graph g = RandomGnp(8, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(8)).value();
  Result<size_t> k3 = MinimalSeparatingK(g, h, 3);
  ASSERT_TRUE(k3.ok());
  EXPECT_EQ(*k3, 0u);
}

TEST(KwlTest, KwlInvariantUnderPermutation) {
  Rng rng(7);
  Graph g = RandomGnp(7, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(7)).value();
  for (size_t k : {2u, 3u}) {
    Result<bool> r = KwlEquivalentGraphs(g, h, k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r) << "k=" << k;
  }
}

TEST(KwlTest, RefinementMonotoneInK) {
  // Whenever (k)-WL separates a pair, (k+1)-WL must too.
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    Graph a = RandomGnp(7, 0.35, &rng);
    Graph b = RandomGnp(7, 0.35, &rng);
    bool sep1 = !*KwlEquivalentGraphs(a, b, 1);
    bool sep2 = !*KwlEquivalentGraphs(a, b, 2);
    bool sep3 = !*KwlEquivalentGraphs(a, b, 3);
    if (sep1) {
      EXPECT_TRUE(sep2);
    }
    if (sep2) {
      EXPECT_TRUE(sep3);
    }
  }
}

TEST(KwlTest, TupleColorLookup) {
  Graph p = PathGraph(4);
  Result<KwlColoring> c = RunKwl({&p}, 2);
  ASSERT_TRUE(c.ok());
  // Tuple (0, 1) is an edge; (0, 2) is not: different atomic types survive
  // refinement.
  uint64_t edge_color = c->TupleColor(0, {0, 1}, 4);
  uint64_t non_edge_color = c->TupleColor(0, {0, 2}, 4);
  EXPECT_NE(edge_color, non_edge_color);
  // Symmetric positions get symmetric colors: (0,1) vs (3,2).
  EXPECT_EQ(c->TupleColor(0, {0, 1}, 4), c->TupleColor(0, {3, 2}, 4));
}

TEST(KwlTest, TableSizeGuard) {
  Graph big = Graph::Unlabeled(200);
  EXPECT_EQ(RunKwl({&big}, 3).status().code(), StatusCode::kOutOfRange);
}

TEST(KwlTest, CfiCyclePairSeparatedAtTwo) {
  // CFI over a cycle: 1-WL blind (all degrees 2 within each part type),
  // 2-WL separates (connectivity-like information).
  Result<std::pair<Graph, Graph>> pair = CfiPair(CycleGraph(5));
  ASSERT_TRUE(pair.ok());
  Result<bool> r1 = KwlEquivalentGraphs(pair->first, pair->second, 1);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  Result<bool> r2 = KwlEquivalentGraphs(pair->first, pair->second, 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

// ---------------------------------------------------------------------------
// Edge cases of the refinement loop: no graphs, a 0-vertex graph, and
// round caps of 0 and 1, for every variant.

size_t Distinct(const std::vector<std::vector<uint64_t>>& colors) {
  std::set<uint64_t> all;
  for (const auto& c : colors) all.insert(c.begin(), c.end());
  return all.size();
}

// A 2-relation path 0-1-...-(n-1) whose edges alternate relations.
RelationalGraph AlternatingPath(size_t n) {
  RelationalGraph g(n, 2, 1);
  for (size_t v = 0; v < n; ++v) {
    g.SetOneHotFeature(static_cast<VertexId>(v), 0);
    if (v + 1 < n) {
      EXPECT_TRUE(g.AddEdge(v % 2, static_cast<VertexId>(v),
                            static_cast<VertexId>(v + 1))
                      .ok());
    }
  }
  return g;
}

TEST(RefineEdgeTest, NoGraphsRunOneEmptyRound) {
  CrColoring cr = RunColorRefinement({});
  EXPECT_TRUE(cr.stable.empty());
  EXPECT_EQ(cr.rounds, 1u);
  EXPECT_EQ(cr.history.size(), 2u);
  for (size_t k : {2, 3}) {
    Result<KwlColoring> folklore = RunKwl({}, k);
    ASSERT_TRUE(folklore.ok());
    EXPECT_TRUE(folklore->stable.empty());
    EXPECT_EQ(folklore->rounds, 1u);
    Result<KwlColoring> oblivious = RunObliviousKwl({}, k);
    ASSERT_TRUE(oblivious.ok());
    EXPECT_TRUE(oblivious->stable.empty());
    EXPECT_EQ(oblivious->rounds, 1u);
  }
  auto relational = RunRelationalColorRefinement({});
  EXPECT_TRUE(relational.stable.empty());
  EXPECT_EQ(relational.rounds, 1u);
}

TEST(RefineEdgeTest, EmptyGraphRunsOneEmptyRound) {
  Graph empty(0, 1);
  CrColoring cr = RunColorRefinement({&empty});
  ASSERT_EQ(cr.stable.size(), 1u);
  EXPECT_TRUE(cr.stable[0].empty());
  EXPECT_EQ(cr.rounds, 1u);
  EXPECT_EQ(cr.history.size(), 2u);
  EXPECT_EQ(CrPartitionSize(empty), 0u);
  for (size_t k : {2, 3}) {
    Result<KwlColoring> folklore = RunKwl({&empty}, k);
    ASSERT_TRUE(folklore.ok());
    ASSERT_EQ(folklore->stable.size(), 1u);
    EXPECT_TRUE(folklore->stable[0].empty());
    EXPECT_EQ(folklore->rounds, 1u);
    Result<KwlColoring> oblivious = RunObliviousKwl({&empty}, k);
    ASSERT_TRUE(oblivious.ok());
    ASSERT_EQ(oblivious->stable.size(), 1u);
    EXPECT_TRUE(oblivious->stable[0].empty());
    EXPECT_EQ(oblivious->rounds, 1u);
  }
  RelationalGraph relational_empty(0, 2, 1);
  auto relational = RunRelationalColorRefinement({&relational_empty});
  ASSERT_EQ(relational.stable.size(), 1u);
  EXPECT_TRUE(relational.stable[0].empty());
  EXPECT_EQ(relational.rounds, 1u);
  IncrementalColorRefiner refiner(&empty);
  EXPECT_TRUE(refiner.colors().empty());
  EXPECT_EQ(refiner.rounds(), 1u);
  EXPECT_EQ(refiner.partition_size(), 0u);
  refiner.Update({});
  EXPECT_EQ(refiner.rounds(), 1u);

  // Beside another graph, an empty one changes none of its colors.
  Graph path = PathGraph(5);
  CrColoring alone = RunColorRefinement({&path});
  CrColoring joint = RunColorRefinement({&empty, &path});
  EXPECT_EQ(joint.stable[1], alone.stable[0]);
  EXPECT_EQ(joint.rounds, alone.rounds);
}

TEST(RefineEdgeTest, MaxRoundsZeroKeepsRoundZeroColors) {
  Graph path = PathGraph(7);
  CrColoring cr = RunColorRefinement({&path}, /*max_rounds=*/0);
  EXPECT_EQ(cr.rounds, 0u);
  ASSERT_EQ(cr.history.size(), 1u);
  EXPECT_EQ(cr.stable, cr.history[0]);
  EXPECT_EQ(Distinct(cr.stable), 1u);  // unlabelled: one feature color
  for (size_t k : {2, 3}) {
    // Atomic types only: the equality/adjacency patterns of the tuples.
    Result<KwlColoring> folklore = RunKwl({&path}, k, 0);
    ASSERT_TRUE(folklore.ok());
    EXPECT_EQ(folklore->rounds, 0u);
    Result<KwlColoring> oblivious = RunObliviousKwl({&path}, k, 0);
    ASSERT_TRUE(oblivious.ok());
    EXPECT_EQ(oblivious->rounds, 0u);
    EXPECT_EQ(folklore->stable, oblivious->stable);
    EXPECT_EQ(Distinct(folklore->stable), k == 2 ? 3u : 14u);  // no triangle
  }
  RelationalGraph rel = AlternatingPath(7);
  auto relational = RunRelationalColorRefinement({&rel}, 0);
  EXPECT_EQ(relational.rounds, 0u);
  EXPECT_EQ(Distinct(relational.stable), 1u);
}

TEST(RefineEdgeTest, MaxRoundsOneStopsAfterOneRound) {
  Graph path = PathGraph(9);
  CrColoring cr = RunColorRefinement({&path}, /*max_rounds=*/1);
  EXPECT_EQ(cr.rounds, 1u);
  EXPECT_EQ(cr.history.size(), 2u);
  EXPECT_EQ(cr.stable, cr.history[1]);
  EXPECT_EQ(Distinct(cr.stable), 2u);  // degree 1 vs degree 2
  EXPECT_GT(RunColorRefinement({&path}).rounds, 1u);
  for (size_t k : {2, 3}) {
    Result<KwlColoring> folklore = RunKwl({&path}, k, 1);
    ASSERT_TRUE(folklore.ok());
    EXPECT_EQ(folklore->rounds, 1u);
    Result<KwlColoring> folklore_stable = RunKwl({&path}, k);
    ASSERT_TRUE(folklore_stable.ok());
    EXPECT_GT(folklore_stable->rounds, 1u);
    EXPECT_LT(Distinct(folklore->stable), Distinct(folklore_stable->stable));
    Result<KwlColoring> oblivious = RunObliviousKwl({&path}, k, 1);
    ASSERT_TRUE(oblivious.ok());
    EXPECT_EQ(oblivious->rounds, 1u);
    Result<KwlColoring> oblivious_stable = RunObliviousKwl({&path}, k);
    ASSERT_TRUE(oblivious_stable.ok());
    EXPECT_GT(oblivious_stable->rounds, 1u);
    EXPECT_LT(Distinct(oblivious->stable),
              Distinct(oblivious_stable->stable));
  }
  RelationalGraph rel = AlternatingPath(9);
  auto relational = RunRelationalColorRefinement({&rel}, 1);
  EXPECT_EQ(relational.rounds, 1u);
  auto relational_stable = RunRelationalColorRefinement({&rel});
  EXPECT_GT(relational_stable.rounds, 1u);
  EXPECT_LT(Distinct(relational.stable), Distinct(relational_stable.stable));
}

}  // namespace
}  // namespace gelc
