// The graph substrate: vertex-labelled graphs G = (V_G, E_G, L_G) with
// L_G : V_G -> R^d, exactly as in the paper's preliminaries (slide 6).
//
// Graphs are stored with explicit out- and in-adjacency lists. Undirected
// graphs are represented by symmetric arc sets; the `directed()` flag only
// records intent (it affects nothing semantically once arcs are symmetric).
//
// Streaming (DESIGN.md §12): AddEdge/RemoveEdge update the sorted
// adjacency lists and bump mutation_epoch(), nothing else. The CSR
// snapshot (graph/csr.h) has one construction path, CsrGraph(g): Csr()
// builds a fresh one whenever the cached snapshot's epoch is behind the
// graph's, so a batch of k mutations costs one build at the next read.
// Snapshots carry their epoch so hoisted views can DCHECK their freshness.
#ifndef GELC_GRAPH_GRAPH_H_
#define GELC_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/status.h"
#include "graph/csr.h"
#include "tensor/matrix.h"

namespace gelc {

using VertexId = uint32_t;

/// A finite vertex-labelled graph. Vertex labels are feature vectors in
/// R^d (discrete label alphabets are one-hot encoded, slide 6).
class Graph {
 public:
  /// An empty graph: zero vertices, feature dimension zero.
  Graph() : Graph(0, 0) {}

  /// An empty graph with n vertices, feature dimension d (features zero).
  Graph(size_t n, size_t feature_dim, bool directed = false);

  /// A graph with all-ones 1-dimensional features (the unlabeled case).
  static Graph Unlabeled(size_t n, bool directed = false);

  size_t num_vertices() const { return out_.size(); }
  size_t num_arcs() const { return num_arcs_; }
  /// For undirected graphs: number of (unordered) edges.
  size_t num_edges() const {
    return directed_ ? num_arcs_ : num_arcs_ / 2;
  }
  bool directed() const { return directed_; }
  size_t feature_dim() const { return features_.cols(); }

  /// Adds an arc u->v (and v->u when undirected). Parallel arcs and
  /// self-loops are rejected.
  Status AddEdge(VertexId u, VertexId v);
  /// Removes the arc u->v (and v->u when undirected); NotFound if absent.
  Status RemoveEdge(VertexId u, VertexId v);
  /// True if the arc u->v exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Out-neighbors of v in ascending order.
  const std::vector<VertexId>& Neighbors(VertexId v) const {
    GELC_DCHECK_LT(v, out_.size());
    return out_[v];
  }
  /// In-neighbors of v in ascending order.
  const std::vector<VertexId>& InNeighbors(VertexId v) const {
    GELC_DCHECK_LT(v, in_.size());
    return in_[v];
  }
  size_t OutDegree(VertexId v) const {
    GELC_DCHECK_LT(v, out_.size());
    return out_[v].size();
  }
  size_t InDegree(VertexId v) const {
    GELC_DCHECK_LT(v, in_.size());
    return in_[v].size();
  }

  /// The n x d feature (label) matrix L_G.
  const Matrix& features() const { return features_; }
  Matrix& mutable_features() { return features_; }
  /// Sets v's feature row; row must be 1 x feature_dim.
  void SetFeature(VertexId v, const Matrix& row);
  /// Sets v's feature to the one-hot vector e_k (k < feature_dim).
  void SetOneHotFeature(VertexId v, size_t k);
  /// Returns v's feature row as a 1 x d matrix.
  Matrix Feature(VertexId v) const { return features_.Row(v); }

  /// Dense n x n 0/1 adjacency matrix. Costs O(n²) memory — the GNN hot
  /// paths use Csr() instead; this stays for the linear-algebra
  /// experiments (spectra, hom-count algebra) that need a dense operator.
  Matrix AdjacencyMatrix() const;
  /// Row-normalized adjacency D^{-1} A (isolated vertices give zero rows).
  Matrix MeanAdjacencyMatrix() const;

  /// The CSR view (adjacency, transpose, GCN-normalized operators), built
  /// on first call and cached. A mutation leaves the cached snapshot in
  /// place; the next Csr() sees its epoch is behind and replaces it with
  /// a fresh build, so the returned reference always reflects the current
  /// structure. A reference taken before a mutation stays readable (it
  /// shows the old structure) until that rebuild frees it. Holders
  /// hoisting the reference across other work should CheckFreshFor() it.
  /// Like all mutating-on-first-use paths, Csr() is not thread-safe; call
  /// it once before sharing the graph across shards.
  const CsrGraph& Csr() const;

  /// Number of successful AddEdge/RemoveEdge mutations so far; CsrGraph
  /// snapshots record the epoch they were built at (staleness checks).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// How many times a dense adjacency matrix has been materialized by
  /// *any* graph in this process (AdjacencyMatrix / MeanAdjacencyMatrix) —
  /// reads the process-wide "graph.dense_adjacency_builds" metric, so
  /// tests pin sparse hot paths as delta-free via obs::Snapshot(). Only
  /// meaningful while metrics are enabled (the default).
  static size_t dense_adjacency_builds();

  /// The image graph pi(G): vertex v is renamed perm[v]. perm must be a
  /// permutation of {0..n-1}. Used by invariance checks (slide 11).
  Result<Graph> Permuted(const std::vector<size_t>& perm) const;

  /// Disjoint union; feature dimensions must match.
  static Result<Graph> DisjointUnion(const Graph& a, const Graph& b);

  /// Vertices of each connected component (ignoring arc direction).
  std::vector<std::vector<VertexId>> ConnectedComponents() const;

  /// Sorted degree sequence (out-degrees).
  std::vector<size_t> DegreeSequence() const;

  /// Multi-line textual dump for diagnostics.
  std::string ToString() const;
  /// Graphviz DOT serialization.
  std::string ToDot(const std::string& name = "G") const;

 private:
  bool directed_;
  size_t num_arcs_ = 0;
  uint64_t mutation_epoch_ = 0;
  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<VertexId>> in_;
  Matrix features_;
  // Lazily-built CSR snapshot; shared so copies of a graph reuse it,
  // replaced (never mutated) when a read finds it stale. Never exposed
  // mutably.
  mutable std::shared_ptr<const CsrGraph> csr_;
};

}  // namespace gelc

#endif  // GELC_GRAPH_GRAPH_H_
