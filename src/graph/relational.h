// Multi-relational graphs (slide 74: "Relational embeddings... initial
// work by considering multi-relation graphs and analyzing power",
// Barceló-Galkin-Morris-Orth, "Weisfeiler and Leman Go Relational").
//
// A relational graph has R edge relations E_1, ..., E_R over one vertex
// set. Relational color refinement (wl/color_refinement.h) refines by the
// PER-RELATION neighbor color multisets; a relational GNN-101 has one
// weight matrix per relation. The key phenomenon (exercised by tests and
// bench_e19): collapsing the relations into one edge set loses separation
// power — relational CR is strictly finer than CR on the union graph.
#ifndef GELC_GRAPH_RELATIONAL_H_
#define GELC_GRAPH_RELATIONAL_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "graph/graph.h"
#include "tensor/ops.h"

namespace gelc {

/// A vertex-labelled graph with R undirected edge relations.
class RelationalGraph {
 public:
  /// n vertices, `num_relations` empty relations, feature dim d.
  RelationalGraph(size_t n, size_t num_relations, size_t feature_dim);

  size_t num_vertices() const { return n_; }
  size_t num_relations() const { return relations_.size(); }
  size_t feature_dim() const { return features_.cols(); }

  /// Adds an undirected edge to relation r.
  Status AddEdge(size_t relation, VertexId u, VertexId v);
  bool HasEdge(size_t relation, VertexId u, VertexId v) const;
  /// Neighbors of v under relation r, ascending.
  const std::vector<VertexId>& Neighbors(size_t relation, VertexId v) const;

  const Matrix& features() const { return features_; }
  void SetOneHotFeature(VertexId v, size_t k);

  /// Forgets the relation types: the union single-relation Graph.
  Graph CollapseRelations() const;
  /// The subgraph of one relation as a plain Graph.
  Result<Graph> RelationGraph(size_t relation) const;

  /// Image under a vertex permutation.
  Result<RelationalGraph> Permuted(const std::vector<size_t>& perm) const;

 private:
  size_t n_;
  // relations_[r] = per-vertex sorted adjacency.
  std::vector<std::vector<std::vector<VertexId>>> relations_;
  Matrix features_;
};

/// A relational GNN-101: F' = act(F W_0 + Σ_r A_r F W_r + b), one
/// message matrix per relation (R-GCN flavoured, slide 74).
class RelationalGnn {
 public:
  struct Layer {
    Matrix w_self;
    std::vector<Matrix> w_rel;  // one per relation
    Matrix b;
    Activation act = Activation::kTanh;
  };

  RelationalGnn(std::vector<Layer> layers, size_t num_relations);

  static Result<RelationalGnn> Random(const std::vector<size_t>& widths,
                                      size_t num_relations, Activation act,
                                      double weight_scale, Rng* rng);

  Result<Matrix> VertexEmbeddings(const RelationalGraph& g) const;
  /// Sum-pooled vertex embeddings.
  Result<Matrix> GraphEmbedding(const RelationalGraph& g) const;

  size_t input_dim() const { return layers_.front().w_self.rows(); }

 private:
  std::vector<Layer> layers_;
  size_t num_relations_;
};

}  // namespace gelc

#endif  // GELC_GRAPH_RELATIONAL_H_
