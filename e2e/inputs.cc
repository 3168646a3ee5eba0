#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace gelc::e2e {

namespace {

constexpr size_t kAtomTypes = 4;

VertexId Draw(Rng* rng, size_t bound) {
  return static_cast<VertexId>(rng->NextBounded(bound));
}

void Label(Graph* g, size_t labels, Rng* rng) {
  for (size_t v = 0; v < g->num_vertices(); ++v) {
    g->SetOneHotFeature(static_cast<VertexId>(v), rng->NextBounded(labels));
  }
}

// Adds u-v unless it is a self-loop or already present.
void AddIfNew(Graph* g, VertexId u, VertexId v) {
  if (u != v && !g->HasEdge(u, v)) GELC_CHECK_OK(g->AddEdge(u, v));
}

}  // namespace

Graph SparseLabelledGraph(size_t n, double avg_degree, size_t labels,
                          Rng* rng) {
  GELC_CHECK(n >= 2);
  Graph g(n, labels);
  const auto target = static_cast<size_t>(
      std::llround(avg_degree * static_cast<double>(n) / 2.0));
  // Rejection keeps the edge set simple; at degree << n almost no draw is
  // rejected, so the loop is linear in the edge count.
  while (g.num_edges() < target) AddIfNew(&g, Draw(rng, n), Draw(rng, n));
  Label(&g, labels, rng);
  return g;
}

Graph CommunityGraph(size_t communities, size_t size, double p_in,
                     double cross_per_vertex, size_t labels, Rng* rng) {
  GELC_CHECK(communities >= 2 && size >= 1);
  const size_t n = communities * size;
  Graph g(n, labels);
  for (size_t lo = 0; lo < n; lo += size) {
    for (size_t u = lo; u < lo + size; ++u) {
      for (size_t v = u + 1; v < lo + size; ++v) {
        if (rng->NextBernoulli(p_in)) {
          GELC_CHECK_OK(
              g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v)));
        }
      }
    }
  }
  const size_t inside = g.num_edges();
  const auto cross = static_cast<size_t>(
      std::llround(cross_per_vertex * static_cast<double>(n)));
  while (g.num_edges() < inside + cross) {
    const VertexId u = Draw(rng, n);
    const VertexId v = Draw(rng, n);
    if (u / size != v / size) AddIfNew(&g, u, v);
  }
  Label(&g, labels, rng);
  return g;
}

Molecules MoleculeDataset(size_t count, size_t min_n, size_t max_n,
                          Rng* rng) {
  GELC_CHECK(3 <= min_n && min_n <= max_n);
  Molecules data;
  data.graphs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t n = min_n + rng->NextBounded(max_n - min_n + 1);
    Graph mol(n, kAtomTypes);
    // Random recursive tree: vertex v hangs off a uniform earlier vertex.
    for (size_t v = 1; v < n; ++v) {
      GELC_CHECK_OK(mol.AddEdge(Draw(rng, v), static_cast<VertexId>(v)));
    }
    Label(&mol, kAtomTypes, rng);
    const size_t label = i % 2;
    if (label == 1) {
      VertexId a = Draw(rng, n);
      VertexId b = Draw(rng, n - 1);
      VertexId c = Draw(rng, n - 2);
      // Three distinct vertices from three draws.
      if (b >= a) ++b;
      if (c >= std::min(a, b)) ++c;
      if (c >= std::max(a, b)) ++c;
      AddIfNew(&mol, a, b);
      AddIfNew(&mol, b, c);
      AddIfNew(&mol, a, c);
      mol.SetOneHotFeature(a, 0);
      mol.SetOneHotFeature(b, 1);
      mol.SetOneHotFeature(c, 2);
    }
    data.graphs.push_back(std::move(mol));
    data.labels.push_back(label);
  }
  return data;
}

}  // namespace gelc::e2e
