// Experiment E9 (slide 11): invariance. Every embedding the library
// produces must satisfy ξ(G, v) = ξ(π(G), π(v)) for all isomorphisms π.
// We apply random permutations to random graphs and report the maximum
// deviation per embedding family (exact zero for combinatorial
// embeddings, floating-point noise for numeric ones).
#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "hom/trees.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

using namespace gelc;

int main() {
  Rng rng(2023);
  constexpr int kTrials = 20;

  size_t cr_mismatches = 0;
  size_t kwl_mismatches = 0;
  size_t hom_mismatches = 0;
  double gnn_dev = 0, mpnn_dev = 0, gel_dev = 0;

  std::vector<Graph> trees = *AllTreesUpTo(5);
  Gnn101Model gnn = *Gnn101Model::Random({1, 6, 6}, Activation::kTanh,
                                         0.7, &rng);
  MpnnModel mpnn = *MpnnModel::Random({1, 6, 6}, Aggregation::kMax, 0.7,
                                      &rng);
  ExprPtr gel = *CompileGnn101GraphToGel(gnn);

  for (int t = 0; t < kTrials; ++t) {
    Graph g = RandomGnp(9, 0.4, &rng);
    Graph h = g.Permuted(rng.Permutation(9)).value();

    CrColoring cr = RunColorRefinement({&g, &h});
    if (cr.GraphSignature(0) != cr.GraphSignature(1)) ++cr_mismatches;

    KwlColoring kwl = *RunKwl({&g, &h}, 2);
    if (kwl.GraphSignature(0) != kwl.GraphSignature(1)) ++kwl_mismatches;

    if (*TreeHomProfile(g, trees) != *TreeHomProfile(h, trees))
      ++hom_mismatches;

    gnn_dev = std::max(gnn_dev, (*GraphEmbedding(gnn, g))
                                    .MaxAbsDiff(*GraphEmbedding(gnn, h)));
    mpnn_dev = std::max(mpnn_dev, (*GraphEmbedding(mpnn, g))
                                      .MaxAbsDiff(*GraphEmbedding(mpnn, h)));
    Evaluator eg(g);
    Evaluator eh(h);
    std::vector<double> vg = *eg.EvalClosed(gel);
    std::vector<double> vh = *eh.EvalClosed(gel);
    for (size_t j = 0; j < vg.size(); ++j)
      gel_dev = std::max(gel_dev, std::fabs(vg[j] - vh[j]));
  }

  std::printf("E9: invariance under isomorphism   [slide 11]\n\n");
  std::printf("%-28s %-14s (%d random permuted pairs)\n", "embedding",
              "deviation", kTrials);
  std::printf("%-28s %zu mismatches\n", "color refinement", cr_mismatches);
  std::printf("%-28s %zu mismatches\n", "2-WL", kwl_mismatches);
  std::printf("%-28s %zu mismatches\n", "tree hom profile", hom_mismatches);
  std::printf("%-28s %.3g max abs\n", "GNN-101 graph embedding", gnn_dev);
  std::printf("%-28s %.3g max abs\n", "max-MPNN graph embedding", mpnn_dev);
  std::printf("%-28s %.3g max abs\n", "compiled GEL expression", gel_dev);
  std::printf("\npaper predicts: all zero (up to float round-off)\n");

  bool ok = cr_mismatches == 0 && kwl_mismatches == 0 &&
            hom_mismatches == 0 && gnn_dev < 1e-8 && mpnn_dev < 1e-8 &&
            gel_dev < 1e-8;
  return ok ? 0 : 1;
}
