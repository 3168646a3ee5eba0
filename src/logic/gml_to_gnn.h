// Compilation of graded modal logic into GNN-101 weights.
//
// Slide 54: "MPNN(Ω,Θ) can express any unary query expressible in graded
// modal logic. GNNs 101 already suffice for this." This module realizes
// that direction constructively (following Barceló et al., ICLR 2020):
// each subformula gets a feature coordinate, each layer computes the
// subformulas of the next height with the truncated-ReLU arithmetization
//   ¬x = 1 - x,  x ∧ y = clip(x + y - 1),  x ∨ y = clip(x + y),
//   ◇≥n φ = clip(Σ_{u ∈ N(v)} x_φ(u) - n + 1).
//
// Requirement: graph features are 0/1 valued (one-hot label encodings), so
// the clipped-ReLU carries them through layers unchanged.
#ifndef GELC_LOGIC_GML_TO_GNN_H_
#define GELC_LOGIC_GML_TO_GNN_H_

#include "base/status.h"
#include "gnn/gnn101.h"
#include "logic/gml.h"

namespace gelc {

/// A GNN-101 model computing a GML query, plus the coordinate of the
/// output feature holding the query's 0/1 truth value per vertex.
struct CompiledGmlGnn {
  Gnn101Model model;
  size_t output_coordinate;
};

/// Compiles `formula` into GNN-101 weights for graphs of the given feature
/// dimension. The resulting model satisfies, for every graph g with 0/1
/// features and every vertex v:
///   VertexEmbeddings(model, g)(v, output_coordinate) == 1.0
///     iff (g, v) ⊨ formula
/// (VertexEmbeddings runs the model's compiled plan, core/compile_gnn.h).
Result<CompiledGmlGnn> CompileGmlToGnn(const GmlPtr& formula,
                                       size_t feature_dim);

}  // namespace gelc

#endif  // GELC_LOGIC_GML_TO_GNN_H_
