// The CSR view of a Graph: the sparse operators every message-passing
// path needs, built once and cached on the Graph (graph.h's Csr()).
//
// Three operators per graph, all in sorted-CSR form (tensor/sparse.h):
//   adjacency()   — A, binary out-adjacency (row v = out-neighbors of v)
//   transpose()   — Aᵀ, binary in-adjacency (the backward operator for
//                   the SparseMatMul tape op)
//   normalized()  — D̃^{-1/2} (A + I) D̃^{-1/2} with D̃ = out-degree + 1,
//                   the GCN propagation operator, weighted; built on its
//                   first read, since only GCN plans use it
// For undirected graphs A is symmetric, so transpose() shares storage
// with adjacency().
//
// CsrGraph(g) is the only way a snapshot is built: Graph::Csr() calls it
// on the first read and again on the first read after a mutation
// (DESIGN.md §12). Every snapshot carries the mutation epoch of the Graph
// it was built from; CheckFreshFor lets holders of a hoisted view assert
// (DCHECK, so debug builds only) that the graph has not been mutated
// underneath them.
#ifndef GELC_GRAPH_CSR_H_
#define GELC_GRAPH_CSR_H_

#include <cstdint>
#include <mutex>

#include "tensor/sparse.h"

namespace gelc {

class Graph;

/// Immutable CSR snapshot of a Graph's structure. Obtain via Graph::Csr()
/// (cached, rebuilt on the first read after a mutation) rather than
/// constructing directly.
class CsrGraph {
 public:
  explicit CsrGraph(const Graph& g);

  /// Binary adjacency A: row v lists v's out-neighbors ascending.
  const CsrMatrix& adjacency() const { return adjacency_; }
  /// Binary transpose Aᵀ: row v lists v's in-neighbors ascending.
  const CsrMatrix& transpose() const {
    return symmetric_ ? adjacency_ : transpose_;
  }
  /// GCN operator D̃^{-1/2} (A + I) D̃^{-1/2} (self-loops included, so no
  /// row is zero; isolated vertices get the 1x1 identity block). Built
  /// on the first call; safe to call from several threads at once.
  const CsrMatrix& normalized() const;

  size_t num_vertices() const { return adjacency_.rows; }

  /// The Graph::mutation_epoch() this snapshot was built at.
  uint64_t epoch() const { return epoch_; }
  /// DCHECKs that `g` has not been mutated since this snapshot was built.
  /// Call at the top of any scope that hoists a Csr() reference across
  /// work that could interleave with graph mutations. The trainers do not
  /// hoist one: they pack a GraphBatch, which copies the operators.
  void CheckFreshFor(const Graph& g) const;

 private:
  bool symmetric_;
  uint64_t epoch_ = 0;
  CsrMatrix adjacency_;
  CsrMatrix transpose_;  // empty when symmetric_ (adjacency_ serves both)
  // Plan executions on several pool workers can read one snapshot at
  // once, so the first normalized() call builds under a once_flag.
  mutable std::once_flag normalized_once_;
  mutable CsrMatrix normalized_;
};

}  // namespace gelc

#endif  // GELC_GRAPH_CSR_H_
