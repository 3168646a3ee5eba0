// Tests for higher-order and symmetry-breaking architectures (slides 63,
// 71): 2-FGNN (folklore 2-WL power), ID-aware GNNs (strictly above CR),
// and GAT (still CR-bounded).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/fgnn.h"
#include "gnn/gat.h"
#include "gnn/subgraph.h"
#include "graph/generators.h"
#include "separation/oracles.h"

namespace gelc {
namespace {

TEST(Fgnn2Test, ShapesAndValidation) {
  Rng rng(1);
  Result<Fgnn2Model> model = Fgnn2Model::Random({1, 4}, 0.5, &rng);
  ASSERT_TRUE(model.ok());
  Graph g = CycleGraph(5);
  Matrix pairs = *model->PairEmbeddings(g);
  EXPECT_EQ(pairs.rows(), 25u);
  EXPECT_EQ(pairs.cols(), 4u);
  Matrix e = *model->GraphEmbedding(g);
  EXPECT_EQ(e.rows(), 1u);
  EXPECT_FALSE(Fgnn2Model::Random({1}, 0.5, &rng).ok());
  // Wrong feature dimension rejected.
  Graph wrong(3, 2);
  EXPECT_FALSE(model->GraphEmbedding(wrong).ok());
}

TEST(Fgnn2Test, InvarianceUnderPermutation) {
  Rng rng(2);
  Fgnn2Model model = *Fgnn2Model::Random({1, 4, 4}, 0.6, &rng);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGnp(7, 0.4, &rng);
    Graph h = g.Permuted(rng.Permutation(7)).value();
    EXPECT_TRUE((*model.GraphEmbedding(g))
                    .AllClose(*model.GraphEmbedding(h), 1e-9));
  }
}

TEST(Fgnn2Test, SeparatesC6FromTwoTriangles) {
  // The pair CR (and hence every MPNN) is blind on; 2-FGNN separates it,
  // matching its folklore-2-WL power.
  auto [c6, two_c3] = Cr_HardPair();
  OraclePtr probe = MakeFgnn2ProbeOracle(8, {6, 6}, 1e-6, 17);
  EXPECT_FALSE(*probe->Equivalent(c6, two_c3));
}

TEST(Fgnn2Test, BlindOnSrgPair) {
  // Folklore 2-WL cannot separate srg(16,6,2,2) graphs; neither may any
  // 2-FGNN.
  auto [shrikhande, rook] = Srg16Pair();
  OraclePtr probe = MakeFgnn2ProbeOracle(6, {5, 5}, 1e-6, 17);
  EXPECT_TRUE(*probe->Equivalent(shrikhande, rook));
}

TEST(Fgnn2Test, SeparatesWhatCrSeparates) {
  OraclePtr probe = MakeFgnn2ProbeOracle(8, {6}, 1e-6, 19);
  EXPECT_FALSE(*probe->Equivalent(PathGraph(4), StarGraph(3)));
  EXPECT_FALSE(*probe->Equivalent(CycleGraph(5), CycleGraph(6)));
}

TEST(IdGnnTest, ShapesAndValidation) {
  Rng rng(3);
  Result<IdGnnModel> model =
      IdGnnModel::Random({1, 5}, Activation::kTanh, 0.5, &rng);
  ASSERT_TRUE(model.ok());
  Graph g = CycleGraph(4);
  Matrix f = *VertexEmbeddings(*model, g);
  EXPECT_EQ(f.rows(), 4u);
  EXPECT_EQ(f.cols(), 5u);
  Graph wrong(3, 2);
  EXPECT_FALSE(VertexEmbeddings(*model, wrong).ok());
}

TEST(IdGnnTest, InvarianceUnderPermutation) {
  Rng rng(4);
  IdGnnModel model =
      *IdGnnModel::Random({1, 5, 5}, Activation::kTanh, 0.6, &rng);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGnp(7, 0.4, &rng);
    std::vector<size_t> perm = rng.Permutation(7);
    Graph h = g.Permuted(perm).value();
    Matrix fg = *VertexEmbeddings(model, g);
    Matrix fh = *VertexEmbeddings(model, h);
    for (size_t v = 0; v < 7; ++v)
      EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
  }
}

TEST(IdGnnTest, SeparatesC6FromTwoTriangles) {
  // Identity marking lets the network notice the 3-cycle returning to the
  // marked vertex — strictly beyond ρ(CR) (slide 71).
  auto [c6, two_c3] = Cr_HardPair();
  OraclePtr probe = MakeIdGnnProbeOracle(8, {6, 6, 6}, 1e-6, 23);
  EXPECT_FALSE(*probe->Equivalent(c6, two_c3));
}

TEST(IdGnnTest, PlainGnnStaysBlindWhereIdGnnSees) {
  auto [c6, two_c3] = Cr_HardPair();
  OraclePtr plain = MakeGnn101ProbeOracle(8, {6, 6, 6}, 1e-6, 23);
  OraclePtr id = MakeIdGnnProbeOracle(8, {6, 6, 6}, 1e-6, 23);
  EXPECT_TRUE(*plain->Equivalent(c6, two_c3));
  EXPECT_FALSE(*id->Equivalent(c6, two_c3));
}

TEST(GatTest, ShapesAndValidation) {
  Rng rng(5);
  Result<GatModel> model = GatModel::Random({2, 6, 4}, 0.5, &rng);
  ASSERT_TRUE(model.ok());
  Graph g(5, 2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  Matrix f = *model->VertexEmbeddings(g);
  EXPECT_EQ(f.rows(), 5u);
  EXPECT_EQ(f.cols(), 4u);
  EXPECT_FALSE(GatModel::Random({2}, 0.5, &rng).ok());
  EXPECT_FALSE(model->VertexEmbeddings(Graph::Unlabeled(3)).ok());
}

TEST(GatTest, AttentionWeightsFormConvexCombination) {
  // With a single layer, identity activation and uniform features, the
  // output of a vertex is a convex combination of its neighbors' z-rows —
  // bounded by the max row.
  Rng rng(6);
  GatModel model = *GatModel::Random({1, 3}, 0.7, &rng);
  Graph g = StarGraph(4);
  Matrix f = *model.VertexEmbeddings(g);
  EXPECT_EQ(f.rows(), 5u);
  // Leaves all have the same single neighbor (the hub): identical rows.
  for (size_t v = 2; v <= 4; ++v)
    EXPECT_TRUE(f.Row(1).AllClose(f.Row(v), 1e-12));
}

TEST(GatTest, InvarianceUnderPermutation) {
  Rng rng(7);
  GatModel model = *GatModel::Random({1, 5, 5}, 0.6, &rng);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGnp(8, 0.4, &rng);
    Graph h = g.Permuted(rng.Permutation(8)).value();
    EXPECT_TRUE((*model.GraphEmbedding(g))
                    .AllClose(*model.GraphEmbedding(h), 1e-9));
  }
}

TEST(GatTest, CrBoundedOnHardPair) {
  // GAT aggregates by weighted mean: on the CR-equivalent pair every
  // vertex's neighborhood looks identical, so GAT embeddings coincide —
  // the paper's point that attention does not escape MPNN(Ω,Θ).
  auto [c6, two_c3] = Cr_HardPair();
  Rng rng(8);
  for (int trial = 0; trial < 6; ++trial) {
    GatModel model = *GatModel::Random({1, 5, 5}, 0.8, &rng);
    Matrix a = *model.GraphEmbedding(c6);
    Matrix b = *model.GraphEmbedding(two_c3);
    EXPECT_TRUE(a.AllClose(b, 1e-9)) << "trial " << trial;
  }
}

TEST(GatTest, SeparatesLabelledNeighborhoods) {
  // Different leaf-label multisets around the hub are visible to the
  // attention mean.
  Graph s1(3, 2);
  ASSERT_TRUE(s1.AddEdge(0, 1).ok());
  ASSERT_TRUE(s1.AddEdge(0, 2).ok());
  s1.SetOneHotFeature(0, 0);
  s1.SetOneHotFeature(1, 0);
  s1.SetOneHotFeature(2, 1);
  Graph s2 = s1;
  s2.SetOneHotFeature(1, 1);  // both leaves labelled B now
  Rng rng(9);
  bool separated = false;
  for (int trial = 0; trial < 8 && !separated; ++trial) {
    GatModel model = *GatModel::Random({2, 4}, 0.8, &rng);
    separated = (*model.GraphEmbedding(s1))
                    .MaxAbsDiff(*model.GraphEmbedding(s2)) > 1e-6;
  }
  EXPECT_TRUE(separated);
}

}  // namespace
}  // namespace gelc
