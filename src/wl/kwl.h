// The k-dimensional Weisfeiler-Leman algorithm (folklore variant), slide 65.
//
// k-WL colors k-tuples of vertices. Initialization assigns every tuple its
// atomic type (the ordered isomorphism type of the induced labelled
// subgraph); refinement replaces each tuple color by
//
//   ( old color, {{ (c(t[1->w]), ..., c(t[k->w])) : w in V }} )
//
// where t[j->w] substitutes w at position j. This is the *folklore* k-WL
// whose k=1 instance is conventionally identified with color refinement and
// for which the hierarchy ρ(1-WL) ⊋ ρ(2-WL) ⊋ ... ⊋ ρ(graph iso) is strict.
//
// The paper (Theorem, slide 66): ρ(k-WL) = ρ(GEL^{k+1}(Ω,Θ)) for rich Ω, Θ.
#ifndef GELC_WL_KWL_H_
#define GELC_WL_KWL_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "graph/graph.h"
#include "wl/refine.h"

namespace gelc {

/// Result of refining k-tuple colorings of several graphs jointly.
/// stable[g][t] is the color of the t-th k-tuple of graph g, where tuples
/// are indexed in mixed radix: t = v_1 * n^{k-1} + ... + v_k.
struct KwlColoring : WlColoring {
  size_t k = 0;

  /// Color of a specific tuple (size must equal k; entries < n_g).
  uint64_t TupleColor(size_t g, const std::vector<VertexId>& tuple,
                      size_t n) const;
};

/// Runs folklore k-WL jointly on `graphs`. k = 1 dispatches to color
/// refinement (the conventional identification). k must be in [1, 4] —
/// the n^k tables grow quickly.
Result<KwlColoring> RunKwl(const std::vector<const Graph*>& graphs, size_t k,
                           int max_rounds = -1);

/// True iff a and b have identical stable k-tuple color histograms,
/// i.e. (a, b) ∈ ρ(k-WL) at the graph level.
Result<bool> KwlEquivalentGraphs(const Graph& a, const Graph& b, size_t k);

/// The smallest k in [1, k_max] whose k-WL separates a from b, or 0 if
/// none does.
Result<size_t> MinimalSeparatingK(const Graph& a, const Graph& b,
                                  size_t k_max);

/// The *oblivious* k-WL variant (the numbering used in e.g. Morris et
/// al.): the refinement signature of a k-tuple is, per position j, the
/// multiset over w of the single color c(t[j->w]) — positions are not
/// synchronized over w as in the folklore variant. Known relationships
/// (exercised by tests): oblivious 1-WL degenerates on vertex-transitive
/// inputs, oblivious 2-WL ≡ color refinement, and oblivious (k+1)-WL ≡
/// folklore k-WL.
Result<KwlColoring> RunObliviousKwl(const std::vector<const Graph*>& graphs,
                                    size_t k, int max_rounds = -1);

/// Graph-level ρ(oblivious k-WL) for a pair.
Result<bool> ObliviousKwlEquivalentGraphs(const Graph& a, const Graph& b,
                                          size_t k);

}  // namespace gelc

#endif  // GELC_WL_KWL_H_
