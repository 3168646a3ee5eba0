// Tests for the exact isomorphism oracle — the paper's "strongest
// separation power" baseline (slide 25).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "wl/isomorphism.h"

namespace gelc {
namespace {

TEST(IsoTest, IdenticalGraphsAreIsomorphic) {
  Graph g = PetersenGraph();
  Result<bool> r = AreIsomorphic(g, g);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(IsoTest, DifferentSizesAreNot) {
  Result<bool> r = AreIsomorphic(PathGraph(3), PathGraph(4));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(IsoTest, SameDegreeSequenceDifferentStructure) {
  // C6 vs 2xC3: both 2-regular on 6 vertices, not isomorphic.
  auto [c6, two_c3] = Cr_HardPair();
  Result<bool> r = AreIsomorphic(c6, two_c3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(IsoTest, Srg16PairNotIsomorphic) {
  auto [shrikhande, rook] = Srg16Pair();
  Result<bool> r = AreIsomorphic(shrikhande, rook);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(IsoTest, SmallCfiPairNotIsomorphic) {
  Result<std::pair<Graph, Graph>> pair = CfiPair(CycleGraph(4));
  ASSERT_TRUE(pair.ok());
  Result<bool> r = AreIsomorphic(pair->first, pair->second);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(IsoTest, FeatureMismatchBlocksIsomorphism) {
  Graph a = PathGraph(2);
  Graph b = PathGraph(2);
  b.mutable_features().At(0, 0) = 2.0;
  Result<bool> r = AreIsomorphic(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(IsoTest, FeaturePermutationRespected) {
  // Path a-b with labels (1, 2) vs path with labels (2, 1): isomorphic via
  // the flip.
  Graph a = PathGraph(2);
  a.mutable_features().At(0, 0) = 1.0;
  a.mutable_features().At(1, 0) = 2.0;
  Graph b = PathGraph(2);
  b.mutable_features().At(0, 0) = 2.0;
  b.mutable_features().At(1, 0) = 1.0;
  Result<std::optional<std::vector<size_t>>> iso = FindIsomorphism(a, b);
  ASSERT_TRUE(iso.ok());
  ASSERT_TRUE(iso->has_value());
  EXPECT_EQ((**iso)[0], 1u);
  EXPECT_EQ((**iso)[1], 0u);
}

TEST(IsoTest, FoundMappingIsAValidIsomorphism) {
  Rng rng(5);
  Graph g = RandomGnp(14, 0.35, &rng);
  std::vector<size_t> perm = rng.Permutation(14);
  Graph h = g.Permuted(perm).value();
  Result<std::optional<std::vector<size_t>>> iso = FindIsomorphism(g, h);
  ASSERT_TRUE(iso.ok());
  ASSERT_TRUE(iso->has_value());
  const std::vector<size_t>& map = **iso;
  for (size_t u = 0; u < 14; ++u) {
    for (size_t v = 0; v < 14; ++v) {
      EXPECT_EQ(g.HasEdge(static_cast<VertexId>(u), static_cast<VertexId>(v)),
                h.HasEdge(static_cast<VertexId>(map[u]),
                          static_cast<VertexId>(map[v])));
    }
  }
}

class RandomPermutationIsoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPermutationIsoTest, PermutedGraphAlwaysIsomorphic) {
  Rng rng(GetParam());
  size_t n = 8 + rng.NextBounded(10);
  Graph g = RandomGnp(n, 0.3, &rng);
  for (size_t v = 0; v < n; ++v)
    g.mutable_features().At(v, 0) = static_cast<double>(rng.NextBounded(3));
  Graph h = g.Permuted(rng.Permutation(n)).value();
  Result<bool> r = AreIsomorphic(g, h);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPermutationIsoTest,
                         ::testing::Range<uint64_t>(1, 13));

class RandomNonIsoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNonIsoTest, EdgeRemovalBreaksIsomorphism) {
  Rng rng(GetParam() * 977);
  size_t n = 10;
  Graph g = RandomGnp(n, 0.4, &rng);
  if (g.num_edges() == 0) GTEST_SKIP();
  // Remove one edge by rebuilding without it.
  size_t skip = rng.NextBounded(g.num_edges());
  Graph h = Graph::Unlabeled(n);
  size_t seen = 0;
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (v < u) continue;
      if (seen++ == skip) continue;
      ASSERT_TRUE(h.AddEdge(static_cast<VertexId>(u), v).ok());
    }
  }
  Result<bool> r = AreIsomorphic(g, h);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // different edge counts
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNonIsoTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(IsoTest, BudgetExhaustionSurfacesAsError) {
  // A CFI pair over a denser base forces deep search; with a tiny budget
  // the search must fail loudly rather than report a wrong verdict.
  Result<std::pair<Graph, Graph>> pair = CfiPair(CompleteGraph(4));
  ASSERT_TRUE(pair.ok());
  Result<bool> r = AreIsomorphic(pair->first, pair->second, /*max_steps=*/5);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  } else {
    // If pruning resolved it within budget, the verdict must be "no".
    EXPECT_FALSE(*r);
  }
}

TEST(IsoTest, DirectedOrientationMatters) {
  Graph a(2, 1, /*directed=*/true);
  ASSERT_TRUE(a.AddEdge(0, 1).ok());
  Graph b(2, 1, /*directed=*/true);
  ASSERT_TRUE(b.AddEdge(1, 0).ok());
  // a and b are isomorphic as digraphs (relabel 0<->1).
  Result<bool> r = AreIsomorphic(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);

  // But a 2-path oriented out of the center vs into the center is not.
  Graph out_star(3, 1, true);
  ASSERT_TRUE(out_star.AddEdge(0, 1).ok());
  ASSERT_TRUE(out_star.AddEdge(0, 2).ok());
  Graph mixed(3, 1, true);
  ASSERT_TRUE(mixed.AddEdge(0, 1).ok());
  ASSERT_TRUE(mixed.AddEdge(2, 0).ok());
  Result<bool> r2 = AreIsomorphic(out_star, mixed);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

}  // namespace
}  // namespace gelc
