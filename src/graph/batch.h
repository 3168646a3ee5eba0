// Batched graph execution: k graphs packed as one block-diagonal graph.
//
// MPNNs are invariant queries over disjoint unions (the paper's
// invariance discussion): message passing never crosses a component
// boundary, so running one forward pass over the disjoint union of a
// batch computes every member's vertex embeddings in a single set of
// kernel launches — the CSR/SpMM machinery amortizes across the dataset
// instead of relaunching per graph. GraphBatch is that disjoint union in
// ready-to-execute form:
//
//   adjacency()/transpose()  block-diagonal CSR (member column indices
//                            shifted by the block's vertex offset)
//   features()               vertically concatenated feature matrix
//   vertex_offsets()         k+1 offsets; block i is rows
//                            [vertex_offsets()[i], vertex_offsets()[i+1])
//   segment_ids()            per-vertex owning-graph index (the inverse
//                            map of vertex_offsets())
//
// The per-graph readout over a batch-wide matrix is a segment reduction
// (tensor/segment.h, Tape::SegmentSum). A single graph is a batch of one,
// so every training forward (gnn/trainable.h) runs over a GraphBatch, and
// a batch of k is bit-identical per graph to k batches of one — see
// DESIGN.md "Batched execution" for the contract and tests/batch_test.cc
// for the differential suite that pins it.
#ifndef GELC_GRAPH_BATCH_H_
#define GELC_GRAPH_BATCH_H_

#include <cstddef>
#include <vector>

#include "base/logging.h"
#include "base/status.h"
#include "graph/graph.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gelc {

/// An immutable block-diagonal packing of k >= 1 graphs. The member
/// graphs must share feature dimension and directedness; they are read
/// once at Create time (via their cached Graph::Csr() views) and not
/// referenced afterwards.
class GraphBatch {
 public:
  /// Packs the graphs in the given order. Empty input, null graphs,
  /// mixed feature dimensions, or mixed directedness are InvalidArgument.
  static Result<GraphBatch> Create(const std::vector<const Graph*>& graphs);

  size_t num_graphs() const { return vertex_offsets_.size() - 1; }
  size_t num_vertices() const { return vertex_offsets_.back(); }
  size_t num_arcs() const { return adjacency_.nnz(); }
  size_t feature_dim() const { return features_.cols(); }

  /// The concatenated num_vertices() x feature_dim() feature matrix.
  const Matrix& features() const { return features_; }
  /// Block-diagonal binary adjacency in sorted CSR form.
  const CsrMatrix& adjacency() const { return adjacency_; }
  /// Its transpose (shares storage with adjacency() when every member
  /// graph is undirected).
  const CsrMatrix& transpose() const {
    return symmetric_ ? adjacency_ : transpose_;
  }

  /// k+1 non-decreasing offsets: graph i owns batch vertex rows
  /// [vertex_offsets()[i], vertex_offsets()[i+1]). This is the `offsets`
  /// argument of the tensor/tape segment ops.
  const std::vector<size_t>& vertex_offsets() const {
    return vertex_offsets_;
  }
  /// Per-vertex owning-graph index, size num_vertices().
  const std::vector<size_t>& segment_ids() const { return segment_ids_; }

  /// First batch row of graph i's block.
  size_t graph_offset(size_t i) const {
    GELC_DCHECK_LT(i, num_graphs());
    return vertex_offsets_[i];
  }
  /// Number of vertices in graph i's block.
  size_t graph_size(size_t i) const {
    GELC_DCHECK_LT(i, num_graphs());
    return vertex_offsets_[i + 1] - vertex_offsets_[i];
  }
  /// Owning graph of batch vertex v.
  size_t segment_of(size_t v) const {
    GELC_DCHECK_LT(v, segment_ids_.size());
    return segment_ids_[v];
  }

  /// Copies graph i's block out of a batch-wide num_vertices() x d
  /// matrix (e.g. per-vertex embeddings) as its own graph_size(i) x d
  /// matrix.
  Matrix Slice(const Matrix& batch_rows, size_t i) const;

 private:
  GraphBatch() = default;

  bool symmetric_ = true;
  Matrix features_;
  CsrMatrix adjacency_;
  CsrMatrix transpose_;  // empty when symmetric_
  std::vector<size_t> vertex_offsets_;
  std::vector<size_t> segment_ids_;
};

}  // namespace gelc

#endif  // GELC_GRAPH_BATCH_H_
