// Exact graph isomorphism testing by color-refinement-pruned backtracking
// (VF2-flavoured). Used as the ground-truth oracle ρ(graph iso) against
// which the separation power of WL / GNN / GEL classes is compared
// (slide 25: "strongest power"). The pruning partition comes from the
// shared WL loop (wl/refine.h), run jointly over both graphs.
//
// Isomorphism here respects vertex features: π must satisfy
// L_H(π(v)) = L_G(v) exactly (the paper's invariance definition, slide 11).
#ifndef GELC_WL_ISOMORPHISM_H_
#define GELC_WL_ISOMORPHISM_H_

#include <optional>
#include <vector>

#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

/// Searches for a feature-preserving isomorphism from a onto b.
///
/// Returns the vertex mapping (perm[v in a] = image in b) if isomorphic,
/// std::nullopt if provably non-isomorphic, or an error Status if the
/// backtracking step budget is exhausted before a decision (highly
/// symmetric inputs such as large CFI pairs can require exponential
/// search).
Result<std::optional<std::vector<size_t>>> FindIsomorphism(
    const Graph& a, const Graph& b, size_t max_steps = 20'000'000);

/// Convenience wrapper: true/false, or error on budget exhaustion.
Result<bool> AreIsomorphic(const Graph& a, const Graph& b,
                           size_t max_steps = 20'000'000);

}  // namespace gelc

#endif  // GELC_WL_ISOMORPHISM_H_
