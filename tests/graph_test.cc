// Unit tests for the graph substrate: Graph, IO, generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "wl/isomorphism.h"

namespace gelc {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(GraphTest, UndirectedEdgeIsSymmetric) {
  Graph g = Graph::Unlabeled(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_arcs(), 2u);
}

TEST(GraphTest, DirectedEdgeIsOneWay) {
  Graph g(3, 1, /*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.InDegree(1), 1u);
  EXPECT_EQ(g.OutDegree(0), 1u);
}

TEST(GraphTest, RejectsSelfLoopsAndDuplicates) {
  Graph g = Graph::Unlabeled(3);
  EXPECT_EQ(g.AddEdge(1, 1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(0, 9).code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, NeighborsSorted) {
  Graph g = Graph::Unlabeled(5);
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_EQ(g.Neighbors(0), (std::vector<VertexId>{1, 3, 4}));
}

TEST(GraphTest, OneHotFeatures) {
  Graph g(2, 3);
  g.SetOneHotFeature(0, 2);
  EXPECT_EQ(g.Feature(0), Matrix({{0, 0, 1}}));
  g.SetOneHotFeature(0, 0);
  EXPECT_EQ(g.Feature(0), Matrix({{1, 0, 0}}));
}

TEST(GraphTest, AdjacencyMatrixMatchesEdges) {
  Graph g = CycleGraph(4);
  Matrix a = g.AdjacencyMatrix();
  for (size_t u = 0; u < 4; ++u)
    for (size_t v = 0; v < 4; ++v)
      EXPECT_EQ(a.At(u, v) == 1.0,
                g.HasEdge(static_cast<VertexId>(u),
                          static_cast<VertexId>(v)));
}

TEST(GraphTest, MeanAdjacencyRowsSumToOne) {
  Graph g = StarGraph(4);
  Matrix a = g.MeanAdjacencyMatrix();
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    double s = 0;
    for (size_t u = 0; u < g.num_vertices(); ++u) s += a.At(v, u);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(GraphTest, PermutedPreservesStructure) {
  Rng rng(1);
  Graph g = RandomGnp(12, 0.3, &rng);
  for (size_t v = 0; v < g.num_vertices(); ++v)
    g.mutable_features().At(v, 0) = static_cast<double>(v % 3);
  std::vector<size_t> perm = rng.Permutation(12);
  Result<Graph> h = g.Permuted(perm);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_edges(), g.num_edges());
  for (size_t u = 0; u < 12; ++u) {
    EXPECT_EQ(h->features().At(perm[u], 0), g.features().At(u, 0));
    for (size_t v = 0; v < 12; ++v) {
      EXPECT_EQ(g.HasEdge(static_cast<VertexId>(u), static_cast<VertexId>(v)),
                h->HasEdge(static_cast<VertexId>(perm[u]),
                           static_cast<VertexId>(perm[v])));
    }
  }
}

TEST(GraphTest, PermutedRejectsBadPermutation) {
  Graph g = Graph::Unlabeled(3);
  EXPECT_FALSE(g.Permuted({0, 1}).ok());
  EXPECT_FALSE(g.Permuted({0, 1, 1}).ok());
  EXPECT_FALSE(g.Permuted({0, 1, 5}).ok());
}

TEST(GraphTest, DisjointUnionCounts) {
  Result<Graph> u = Graph::DisjointUnion(CycleGraph(3), PathGraph(4));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_vertices(), 7u);
  EXPECT_EQ(u->num_edges(), 6u);
  EXPECT_EQ(u->ConnectedComponents().size(), 2u);
  // No cross edges.
  for (VertexId a = 0; a < 3; ++a)
    for (VertexId b = 3; b < 7; ++b) EXPECT_FALSE(u->HasEdge(a, b));
}

TEST(GraphTest, DisjointUnionRejectsMismatch) {
  Graph a(2, 1);
  Graph b(2, 2);
  EXPECT_FALSE(Graph::DisjointUnion(a, b).ok());
}

TEST(GraphTest, ConnectedComponentsOfPath) {
  EXPECT_EQ(PathGraph(5).ConnectedComponents().size(), 1u);
  EXPECT_EQ(Graph::Unlabeled(4).ConnectedComponents().size(), 4u);
}

TEST(GraphTest, DegreeSequence) {
  EXPECT_EQ(StarGraph(3).DegreeSequence(), (std::vector<size_t>{1, 1, 1, 3}));
  EXPECT_EQ(CycleGraph(5).DegreeSequence(),
            (std::vector<size_t>(5, 2)));
}

// --- generators ---

TEST(GeneratorsTest, PathCycleCompleteCounts) {
  EXPECT_EQ(PathGraph(6).num_edges(), 5u);
  EXPECT_EQ(CycleGraph(6).num_edges(), 6u);
  EXPECT_EQ(CompleteGraph(6).num_edges(), 15u);
  EXPECT_EQ(CompleteBipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(GridGraph(3, 4).num_edges(), 17u);
}

TEST(GeneratorsTest, PetersenIsThreeRegularGirthFive) {
  Graph p = PetersenGraph();
  EXPECT_EQ(p.num_vertices(), 10u);
  EXPECT_EQ(p.num_edges(), 15u);
  EXPECT_EQ(p.DegreeSequence(), std::vector<size_t>(10, 3));
  // No triangles or 4-cycles: count closed walks via adjacency powers.
  Matrix a = p.AdjacencyMatrix();
  Matrix a3 = a.MatMul(a).MatMul(a);
  for (size_t v = 0; v < 10; ++v) EXPECT_EQ(a3.At(v, v), 0.0);
}

TEST(GeneratorsTest, HypercubeStructure) {
  Result<Graph> q3 = HypercubeGraph(3);
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3->num_vertices(), 8u);
  EXPECT_EQ(q3->num_edges(), 12u);
  EXPECT_EQ(q3->DegreeSequence(), std::vector<size_t>(8, 3));
  // Bipartite: no odd closed walks.
  Matrix a = q3->AdjacencyMatrix();
  Matrix a3 = a.MatMul(a).MatMul(a);
  for (size_t v = 0; v < 8; ++v) EXPECT_EQ(a3.At(v, v), 0.0);
  EXPECT_FALSE(HypercubeGraph(0).ok());
  EXPECT_FALSE(HypercubeGraph(17).ok());
}

TEST(GeneratorsTest, KneserFiveTwoIsPetersen) {
  Result<Graph> k52 = KneserGraph(5, 2);
  ASSERT_TRUE(k52.ok());
  EXPECT_EQ(k52->num_vertices(), 10u);
  EXPECT_EQ(k52->num_edges(), 15u);
  Result<bool> iso = AreIsomorphic(*k52, PetersenGraph());
  ASSERT_TRUE(iso.ok());
  EXPECT_TRUE(*iso);
  EXPECT_FALSE(KneserGraph(3, 2).ok());  // n < 2k
  EXPECT_FALSE(KneserGraph(4, 0).ok());
}

TEST(GeneratorsTest, CirculantDegrees) {
  Result<Graph> c = CirculantGraph(8, {1, 2});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->DegreeSequence(), std::vector<size_t>(8, 4));
  EXPECT_FALSE(CirculantGraph(8, {0}).ok());
  EXPECT_FALSE(CirculantGraph(8, {9}).ok());
}

TEST(GeneratorsTest, Srg16PairParameters) {
  auto [shrikhande, rook] = Srg16Pair();
  for (const Graph* g : {&shrikhande, &rook}) {
    EXPECT_EQ(g->num_vertices(), 16u);
    EXPECT_EQ(g->num_edges(), 48u);
    EXPECT_EQ(g->DegreeSequence(), std::vector<size_t>(16, 6));
    // srg(16,6,2,2): every pair of adjacent vertices has exactly 2 common
    // neighbors, every non-adjacent pair also exactly 2.
    Matrix a = g->AdjacencyMatrix();
    Matrix a2 = a.MatMul(a);
    for (size_t u = 0; u < 16; ++u) {
      for (size_t v = 0; v < 16; ++v) {
        if (u == v) continue;
        EXPECT_EQ(a2.At(u, v), 2.0) << "common neighbors of " << u << "," << v;
      }
    }
  }
}

TEST(GeneratorsTest, RandomGnpEdgeDensity) {
  Rng rng(42);
  Graph g = RandomGnp(60, 0.2, &rng);
  double max_edges = 60.0 * 59.0 / 2.0;
  double density = static_cast<double>(g.num_edges()) / max_edges;
  EXPECT_NEAR(density, 0.2, 0.05);
}

TEST(GeneratorsTest, RandomTreeIsTree) {
  Rng rng(7);
  for (size_t n : {2u, 5u, 17u, 40u}) {
    Graph t = RandomTree(n, &rng);
    EXPECT_EQ(t.num_edges(), n - 1);
    EXPECT_EQ(t.ConnectedComponents().size(), 1u);
  }
}

TEST(GeneratorsTest, RandomRegularDegrees) {
  Rng rng(11);
  Result<Graph> g = RandomRegular(16, 3, &rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->DegreeSequence(), std::vector<size_t>(16, 3));
  EXPECT_FALSE(RandomRegular(5, 3, &rng).ok());  // odd n*d
  EXPECT_FALSE(RandomRegular(4, 4, &rng).ok());  // d >= n
}

TEST(GeneratorsTest, SbmBlocksBalanced) {
  Rng rng(13);
  SbmGraph sbm = RandomSbm(40, 4, 0.5, 0.05, &rng);
  std::vector<size_t> counts(4, 0);
  for (size_t b : sbm.blocks) ++counts[b];
  for (size_t c : counts) EXPECT_EQ(c, 10u);
}

TEST(GeneratorsTest, CfiPairShapes) {
  Graph base = CycleGraph(4);
  Result<std::pair<Graph, Graph>> pair = CfiPair(base);
  ASSERT_TRUE(pair.ok());
  const Graph& untwisted = pair->first;
  const Graph& twisted = pair->second;
  // Cycle base: 2 even subsets per degree-2 vertex, 2 vertices per edge.
  EXPECT_EQ(untwisted.num_vertices(), 2 * 4 + 2 * 4);
  EXPECT_EQ(twisted.num_vertices(), untwisted.num_vertices());
  EXPECT_EQ(untwisted.num_edges(), twisted.num_edges());
  EXPECT_EQ(untwisted.DegreeSequence(), twisted.DegreeSequence());
}

TEST(GeneratorsTest, CfiOfCycleIsTwoCyclesVsOneCycle) {
  // Classic fact: the untwisted CFI companion of C_n is disconnected (two
  // n-cycle-like sheets), the twisted one is a single component.
  Result<std::pair<Graph, Graph>> pair = CfiPair(CycleGraph(5));
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->first.ConnectedComponents().size(), 2u);
  EXPECT_EQ(pair->second.ConnectedComponents().size(), 1u);
}

TEST(GeneratorsTest, CfiRejectsBadBases) {
  EXPECT_FALSE(CfiPair(Graph::Unlabeled(3)).ok());  // no edges/disconnected
  Graph directed(3, 1, /*directed=*/true);
  EXPECT_FALSE(CfiPair(directed).ok());
}

TEST(GeneratorsTest, MoleculesHaveBothClassesAndRings) {
  Rng rng(17);
  GraphDataset ds = SyntheticMolecules(20, &rng);
  ASSERT_EQ(ds.graphs.size(), 20u);
  size_t positives = 0;
  for (size_t i = 0; i < ds.graphs.size(); ++i) {
    if (ds.labels[i] == 1) {
      ++positives;
      // Positive molecules contain a cycle: m >= n.
      EXPECT_GE(ds.graphs[i].num_edges(), ds.graphs[i].num_vertices());
    } else {
      // Negatives are trees.
      EXPECT_EQ(ds.graphs[i].num_edges(), ds.graphs[i].num_vertices() - 1);
    }
  }
  EXPECT_EQ(positives, 10u);
}

TEST(GeneratorsTest, CitationsSplitsPartitionVertices) {
  Rng rng(19);
  NodeDataset ds = SyntheticCitations(60, 3, 0.1, &rng);
  EXPECT_EQ(ds.graph.num_vertices(), 60u);
  std::set<size_t> all(ds.train_nodes.begin(), ds.train_nodes.end());
  all.insert(ds.test_nodes.begin(), ds.test_nodes.end());
  EXPECT_EQ(all.size(), 60u);
  EXPECT_EQ(ds.train_nodes.size() + ds.test_nodes.size(), 60u);
}

TEST(GeneratorsTest, LinkDatasetPositivesAreRealHeldOutEdges) {
  Rng rng(23);
  LinkDataset ds = SyntheticSocialLinks(50, &rng);
  EXPECT_FALSE(ds.train_pairs.empty());
  EXPECT_EQ(ds.train_pairs.size(), ds.train_labels.size());
  EXPECT_EQ(ds.test_pairs.size(), ds.test_labels.size());
  // Held-out positive pairs must not appear in the observed graph.
  for (size_t i = 0; i < ds.train_pairs.size(); ++i) {
    if (ds.train_labels[i] == 1) {
      EXPECT_FALSE(
          ds.graph.HasEdge(ds.train_pairs[i].first, ds.train_pairs[i].second));
    }
  }
}

// --- IO ---

TEST(IoTest, RoundTrip) {
  Rng rng(29);
  Graph g = RandomGnp(10, 0.4, &rng);
  g.mutable_features().At(3, 0) = 0.25;
  Result<Graph> back = ParseGraphText(SerializeGraphText(g));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  EXPECT_EQ(back->features(), g.features());
  for (size_t u = 0; u < 10; ++u)
    EXPECT_EQ(back->Neighbors(static_cast<VertexId>(u)),
              g.Neighbors(static_cast<VertexId>(u)));
}

TEST(IoTest, ParsesCommentsAndBlankLines) {
  Result<Graph> g = ParseGraphText(
      "# a triangle\n"
      "graph 3 1 0\n"
      "\n"
      "v 0 1.0\n"
      "e 0 1  # first edge\n"
      "e 1 2\n"
      "e 0 2\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->features().At(0, 0), 1.0);
}

TEST(IoTest, ErrorsCarryLineNumbers) {
  Result<Graph> g = ParseGraphText("graph 2 1 0\ne 0 5\n");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseGraphText("e 0 1\n").ok());       // edge before header
  EXPECT_FALSE(ParseGraphText("graph 2 1 0\nx\n").ok());  // unknown record
  EXPECT_FALSE(ParseGraphText("").ok());              // no header
  // Hostile headers are errors before anything is allocated.
  EXPECT_FALSE(ParseGraphText("graph -1 1 0\n").ok());   // negative n
  EXPECT_FALSE(ParseGraphText("graph 2 -1 0\n").ok());   // negative d
  EXPECT_FALSE(ParseGraphText("graph 4294967296 0 0\n").ok());  // n > VertexId
  EXPECT_FALSE(ParseGraphText("graph 3000000000 3000000000 0\n").ok());
  EXPECT_FALSE(ParseGraphText("graph 1 9223372036854775807 0\n").ok());
  // 2^24 + 1 cells, one past kMaxGraphTextCells.
  EXPECT_FALSE(ParseGraphText("graph 16777217 0 0\n").ok());
  EXPECT_FALSE(ParseGraphText("graph 4097 4096 0\n").ok());
  EXPECT_TRUE(ParseGraphText("graph 0 0 0\n").ok());
}

TEST(IoTest, DirectedRoundTrip) {
  Graph g(3, 1, /*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  Result<Graph> back = ParseGraphText(SerializeGraphText(g));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->directed());
  EXPECT_EQ(back->num_arcs(), 3u);
  EXPECT_TRUE(back->HasEdge(2, 0));
  EXPECT_FALSE(back->HasEdge(0, 2));
}

TEST(IoTest, DotOutputMentionsAllEdges) {
  Graph g = PathGraph(3);
  std::string dot = g.ToDot("p3");
  EXPECT_NE(dot.find("graph p3"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
}

}  // namespace
}  // namespace gelc
