// Tests for the graph6 codec.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph6.h"
#include "wl/isomorphism.h"

namespace gelc {
namespace {

TEST(Graph6Test, KnownEncodings) {
  // Canonical examples from the nauty documentation / folklore:
  // K4 on 4 vertices is "C~", the empty graph on 5 vertices is "D??".
  Result<Graph> k4 = ParseGraph6("C~");
  ASSERT_TRUE(k4.ok());
  EXPECT_EQ(k4->num_vertices(), 4u);
  EXPECT_EQ(k4->num_edges(), 6u);

  Result<Graph> e5 = ParseGraph6("D??");
  ASSERT_TRUE(e5.ok());
  EXPECT_EQ(e5->num_vertices(), 5u);
  EXPECT_EQ(e5->num_edges(), 0u);

  // P4 (path on 4 vertices, edges 01-12-23) encodes as "Ch".
  Result<Graph> p4 = ParseGraph6("Ch");
  ASSERT_TRUE(p4.ok());
  EXPECT_EQ(p4->num_edges(), 3u);
  EXPECT_TRUE(*AreIsomorphic(*p4, PathGraph(4)));
}

TEST(Graph6Test, EncodeKnownGraphs) {
  EXPECT_EQ(*ToGraph6(CompleteGraph(4)), "C~");
  EXPECT_EQ(*ToGraph6(Graph::Unlabeled(5)), "D??");
}

TEST(Graph6Test, RoundTripRandomGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    size_t n = 1 + rng.NextBounded(30);
    Graph g = RandomGnp(n, 0.3, &rng);
    std::string encoded = *ToGraph6(g);
    Graph back = *ParseGraph6(encoded);
    ASSERT_EQ(back.num_vertices(), n);
    ASSERT_EQ(back.num_edges(), g.num_edges());
    for (size_t u = 0; u < n; ++u)
      EXPECT_EQ(back.Neighbors(static_cast<VertexId>(u)),
                g.Neighbors(static_cast<VertexId>(u)));
  }
}

TEST(Graph6Test, LongFormForLargeGraphs) {
  Graph g = CycleGraph(100);
  std::string encoded = *ToGraph6(g);
  EXPECT_EQ(encoded[0], '~');
  Graph back = *ParseGraph6(encoded);
  EXPECT_EQ(back.num_vertices(), 100u);
  EXPECT_EQ(back.num_edges(), 100u);
}

TEST(Graph6Test, Validation) {
  EXPECT_FALSE(ParseGraph6("").ok());
  EXPECT_FALSE(ParseGraph6("C").ok());         // truncated bit data
  EXPECT_FALSE(ParseGraph6("C~~~~").ok());     // excess data
  EXPECT_FALSE(ParseGraph6(std::string(1, '\x1f')).ok());  // bad byte
  Graph d(3, 1, /*directed=*/true);
  EXPECT_FALSE(ToGraph6(d).ok());
}

TEST(Graph6Test, PetersenRoundTripPreservesIsomorphismClass) {
  Graph p = PetersenGraph();
  Graph back = *ParseGraph6(*ToGraph6(p));
  EXPECT_TRUE(*AreIsomorphic(p, back));
}

}  // namespace
}  // namespace gelc
