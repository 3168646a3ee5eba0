// Experiment E18 (slides 8, 24, 26): ρ(F) at the VERTEX level. The
// theorem ρ(GNN 101) = ρ(color refinement) speaks about p-vertex
// embeddings too: two vertices get identical GNN embeddings (under every
// weight setting) iff color refinement assigns them the same stable
// color. We compare the vertex partition induced by CR with the partition
// induced by a battery of random GNNs on assorted graphs.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/gnn101.h"
#include "graph/generators.h"
#include "wl/color_refinement.h"

using namespace gelc;

namespace {

// Partition of vertices by CR stable color, as sorted class sizes plus a
// vertex -> class id map.
std::vector<size_t> CrClasses(const Graph& g) {
  CrColoring c = RunColorRefinement({&g});
  std::map<uint64_t, size_t> ids;
  std::vector<size_t> out(g.num_vertices());
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    auto [it, inserted] = ids.emplace(c.stable[0][v], ids.size());
    out[v] = it->second;
  }
  return out;
}

// Partition by joint embedding proximity across `models`.
std::vector<size_t> GnnClasses(const Graph& g,
                               const std::vector<Gnn101Model>& models,
                               double tol) {
  size_t n = g.num_vertices();
  std::vector<Matrix> embeddings;
  for (const Gnn101Model& m : models)
    embeddings.push_back(*VertexEmbeddings(m, g));
  std::vector<size_t> cls(n, static_cast<size_t>(-1));
  size_t next = 0;
  for (size_t v = 0; v < n; ++v) {
    if (cls[v] != static_cast<size_t>(-1)) continue;
    cls[v] = next;
    for (size_t w = v + 1; w < n; ++w) {
      if (cls[w] != static_cast<size_t>(-1)) continue;
      bool same = true;
      for (const Matrix& e : embeddings) {
        if (!e.Row(v).AllClose(e.Row(w), tol)) {
          same = false;
          break;
        }
      }
      if (same) cls[w] = next;
    }
    ++next;
  }
  return cls;
}

bool SamePartition(const std::vector<size_t>& a,
                   const std::vector<size_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<std::pair<size_t, size_t>, bool> seen;
  for (size_t i = 0; i < a.size(); ++i)
    for (size_t j = i + 1; j < a.size(); ++j)
      if ((a[i] == a[j]) != (b[i] == b[j])) return false;
  return true;
}

}  // namespace

int main() {
  Rng rng(2023);
  // Depth matters: L GNN layers realize exactly L rounds of color
  // refinement, and a path of length n needs ~n/2 rounds — use 6 layers
  // so the receptive field covers every test graph's refinement depth.
  std::vector<Gnn101Model> models;
  for (int i = 0; i < 15; ++i)
    models.push_back(*Gnn101Model::Random({1, 8, 8, 8, 8, 8, 8},
                                          Activation::kTanh, 0.5, &rng));

  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"P7 (path)", PathGraph(7)});
  cases.push_back({"Star5", StarGraph(5)});
  cases.push_back({"C8 (vertex-transitive)", CycleGraph(8)});
  cases.push_back({"grid 3x4", GridGraph(3, 4)});
  cases.push_back({"Petersen", PetersenGraph()});
  cases.push_back({"lollipop", [] {
                     Graph g = Graph::Unlabeled(7);
                     // triangle 0-1-2 with a tail 2-3-4-5-6.
                     GELC_CHECK_OK(g.AddEdge(0, 1));
                     GELC_CHECK_OK(g.AddEdge(1, 2));
                     GELC_CHECK_OK(g.AddEdge(0, 2));
                     GELC_CHECK_OK(g.AddEdge(2, 3));
                     GELC_CHECK_OK(g.AddEdge(3, 4));
                     GELC_CHECK_OK(g.AddEdge(4, 5));
                     GELC_CHECK_OK(g.AddEdge(5, 6));
                     return g;
                   }()});
  for (int i = 0; i < 5; ++i) {
    cases.push_back({"random G(10,.3)", RandomGnp(10, 0.3, &rng)});
  }

  std::printf("E18: vertex-level rho(GNN 101) = rho(CR)  [slides 24, 26]\n\n");
  std::printf("%-24s %-12s %-12s %s\n", "graph", "CR classes",
              "GNN classes", "partitions match");
  size_t matches = 0;
  for (const Case& c : cases) {
    std::vector<size_t> cr = CrClasses(c.g);
    std::vector<size_t> gnn = GnnClasses(c.g, models, 1e-7);
    bool same = SamePartition(cr, gnn);
    if (same) ++matches;
    std::printf("%-24s %-12zu %-12zu %s\n", c.name,
                *std::max_element(cr.begin(), cr.end()) + 1,
                *std::max_element(gnn.begin(), gnn.end()) + 1,
                same ? "yes" : "NO");
  }
  std::printf("\nagreement: %zu/%zu graphs (paper predicts all)\n", matches,
              cases.size());
  return matches == cases.size() ? 0 : 1;
}
