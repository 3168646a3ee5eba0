// ID-aware GNNs (slide 71: "Id-aware GNNs", "subgraph networks"): run a
// base MPNN once per vertex v on the graph with v individualized by an
// extra marker feature, and read off v's own embedding.
//
// Marking breaks the symmetry color refinement is stuck on: ID-GNNs can
// count cycles through a vertex and separate C6 from C3+C3 — strictly
// above ρ(CR) — yet are not comparable to the full 2-WL level (they are
// one instance of the finer-grained hierarchies of slide 71).
#ifndef GELC_GNN_SUBGRAPH_H_
#define GELC_GNN_SUBGRAPH_H_

#include "base/rng.h"
#include "base/status.h"
#include "gnn/gnn101.h"

namespace gelc {

/// An identity-aware GNN built on a GNN-101 base whose input dimension is
/// the graph feature dimension plus one marker column. Weights only: the
/// forward (VertexEmbeddings / GraphEmbedding in core/compile_gnn.h)
/// compiles the base once and runs its plan once per marked vertex; row v
/// comes from the run where v carries the marker, and the graph embedding
/// sum-pools those rows (no extra readout MLP).
class IdGnnModel {
 public:
  /// `base` must have input dim = graph_feature_dim + 1.
  IdGnnModel(Gnn101Model base, size_t graph_feature_dim);

  /// Random base network: widths[0] is the *graph* feature dim (the base
  /// is created with widths[0] + 1 inputs).
  static Result<IdGnnModel> Random(const std::vector<size_t>& widths,
                                   Activation act, double weight_scale,
                                   Rng* rng);

  const Gnn101Model& base() const { return base_; }
  size_t graph_feature_dim() const { return graph_feature_dim_; }

 private:
  Gnn101Model base_;
  size_t graph_feature_dim_;
};

}  // namespace gelc

#endif  // GELC_GNN_SUBGRAPH_H_
