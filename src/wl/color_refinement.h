// Color refinement (a.k.a. 1-WL / naive vertex classification), slide 50:
//
//   1. Initialization: all vertices have their original colors (labels).
//   2. Refinement: v and w get different colors if there is a color c such
//      that v and w have a different number of neighbors of color c.
//
// Colors are canonical ids from a shared Interner, so several graphs can be
// refined jointly in lockstep and their colorings compared by id equality.
// ρ(color refinement) — pairs with identical color histograms — is the
// separation-power yardstick for MPNNs (slides 26, 51-52).
#ifndef GELC_WL_COLOR_REFINEMENT_H_
#define GELC_WL_COLOR_REFINEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "wl/refine.h"

namespace gelc {

class RelationalGraph;

/// Result of refining a set of graphs jointly until stability.
struct CrColoring : WlColoring {
  /// history[r][g][v] = color after round r (round 0 = initial labels).
  std::vector<Colorings> history;
};

/// Runs color refinement jointly on `graphs` until the joint partition is
/// stable (or `max_rounds` if non-negative). Colors are comparable across
/// the supplied graphs only.
CrColoring RunColorRefinement(const std::vector<const Graph*>& graphs,
                              int max_rounds = -1);

/// True iff a and b have identical stable color histograms, i.e.
/// (a, b) ∈ ρ(color refinement) at the graph level.
bool CrEquivalentGraphs(const Graph& a, const Graph& b);

/// True iff vertex u of a and vertex v of b receive the same stable color
/// under joint refinement (vertex-level ρ).
bool CrEquivalentVertices(const Graph& a, VertexId u, const Graph& b,
                          VertexId v);

/// Number of distinct stable colors of a single graph (its CR partition
/// size); equals n iff CR discretizes the graph.
size_t CrPartitionSize(const Graph& g);

/// Round signature of vertex v of g from the previous round's colors
/// `prev`: v's own color, then its out-neighbors' colors sorted. `words`
/// is scratch.
std::string CrSignature(const Graph& g, const std::vector<uint64_t>& prev,
                        VertexId v, std::vector<uint64_t>* words);

/// Runs the shared refinement loop (wl/refine.h) with the CR signature:
/// colors[g] belongs to graphs[g].
size_t RefineCr(const std::vector<const Graph*>& graphs, int max_rounds,
                Interner* interner, Colorings* colors,
                std::vector<Colorings>* history);

/// Relational color refinement (slide 74, Barceló-Galkin-Morris-Orth):
/// a vertex's signature holds one neighbor-color multiset PER relation,
/// so it is strictly finer than CR on the collapsed graph. Colors are
/// interned jointly across the supplied graphs.
CrColoring RunRelationalColorRefinement(
    const std::vector<const RelationalGraph*>& graphs, int max_rounds = -1);

/// Graph-level relational-CR equivalence.
bool RelationalCrEquivalent(const RelationalGraph& a,
                            const RelationalGraph& b);

}  // namespace gelc

#endif  // GELC_WL_COLOR_REFINEMENT_H_
