#include "graph/csr.h"

#include <cmath>
#include <vector>

#include "base/logging.h"
#include "graph/graph.h"

namespace gelc {

namespace {

// Packs adjacency lists (already ascending per row, `nnz` entries in
// all) into binary CSR.
template <typename RowFn>
CsrMatrix PackLists(size_t n, size_t nnz, RowFn row) {
  CsrMatrix out;
  out.rows = n;
  out.cols = n;
  out.row_offsets.reserve(n + 1);
  out.row_offsets.push_back(0);
  out.col_indices.reserve(nnz);
  for (size_t v = 0; v < n; ++v) {
    const std::vector<VertexId>& nbrs = row(static_cast<VertexId>(v));
    out.col_indices.insert(out.col_indices.end(), nbrs.begin(), nbrs.end());
    out.row_offsets.push_back(out.col_indices.size());
  }
  return out;
}

// GCN normalization from a binary adjacency, matching the dense formula
// entry for entry: Ã = A + I, D̃_vv = Σ_u Ã_vu (out-degree + 1), entry
// (v,u) of the operator is Ã_vu / sqrt(D̃_vv · D̃_uu).
CsrMatrix BuildNormalized(const CsrMatrix& adj) {
  const size_t n = adj.rows;
  std::vector<double> dinv(n);
  for (size_t v = 0; v < n; ++v) {
    size_t deg = adj.row_offsets[v + 1] - adj.row_offsets[v] + 1;
    dinv[v] = 1.0 / std::sqrt(static_cast<double>(deg));
  }
  CsrMatrix out;
  out.rows = n;
  out.cols = n;
  out.row_offsets.reserve(n + 1);
  out.row_offsets.push_back(0);
  out.col_indices.reserve(adj.nnz() + n);
  out.values.reserve(adj.nnz() + n);
  for (size_t v = 0; v < n; ++v) {
    bool self_done = false;
    auto push = [&out, &dinv, v](size_t u) {
      out.col_indices.push_back(static_cast<uint32_t>(u));
      out.values.push_back(dinv[v] * dinv[u]);
    };
    for (size_t k = adj.row_offsets[v]; k < adj.row_offsets[v + 1]; ++k) {
      uint32_t u = adj.col_indices[k];
      if (!self_done && u > v) {
        push(v);
        self_done = true;
      }
      push(u);  // Graph rejects self-loops, so u != v and order stays sorted.
    }
    if (!self_done) push(v);
    out.row_offsets.push_back(out.col_indices.size());
  }
  return out;
}

}  // namespace

CsrGraph::CsrGraph(const Graph& g)
    : symmetric_(!g.directed()), epoch_(g.mutation_epoch()) {
  size_t n = g.num_vertices();
  adjacency_ = PackLists(n, g.num_arcs(), [&g](VertexId v) -> const auto& {
    return g.Neighbors(v);
  });
  if (!symmetric_) {
    transpose_ = PackLists(n, g.num_arcs(), [&g](VertexId v) -> const auto& {
      return g.InNeighbors(v);
    });
  }
}

const CsrMatrix& CsrGraph::normalized() const {
  std::call_once(normalized_once_,
                 [this] { normalized_ = BuildNormalized(adjacency_); });
  return normalized_;
}

void CsrGraph::CheckFreshFor(const Graph& g) const {
  (void)g;  // only read in debug builds
  GELC_DCHECK_EQ(epoch_, g.mutation_epoch());
}

}  // namespace gelc
