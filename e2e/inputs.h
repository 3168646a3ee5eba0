// Seeded input generators, each linear in the size of what it builds.
// The library's RandomGnp draws every vertex pair (O(n²)); at the
// benchmark's sizes that would make set-up time a measure of the
// generator, so the graphs here are drawn edge by edge instead.
#ifndef GELC_E2E_INPUTS_H_
#define GELC_E2E_INPUTS_H_

#include <cstddef>
#include <vector>

#include "base/rng.h"
#include "graph/graph.h"

namespace gelc::e2e {

/// n vertices, about n * avg_degree / 2 distinct uniform random edges, and
/// a uniform one-hot label out of `labels` per vertex.
Graph SparseLabelledGraph(size_t n, double avg_degree, size_t labels,
                          Rng* rng);

/// `communities` blocks of `size` vertices, each pair inside a block an
/// edge with probability p_in, plus cross_per_vertex * n uniform edges
/// between distinct blocks, and uniform one-hot labels.
Graph CommunityGraph(size_t communities, size_t size, double p_in,
                     double cross_per_vertex, size_t labels, Rng* rng);

/// A molecule-style classification dataset in bench_p9's recipe: a
/// random tree skeleton over n ~ U[min_n, max_n] vertices, 4 one-hot
/// atom types, and on every odd graph (label 1) a planted triangle with
/// atom types 0, 1, 2.
struct Molecules {
  std::vector<Graph> graphs;
  std::vector<size_t> labels;
};
Molecules MoleculeDataset(size_t count, size_t min_n, size_t max_n, Rng* rng);

}  // namespace gelc::e2e

#endif  // GELC_E2E_INPUTS_H_
