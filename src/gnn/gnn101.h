// "GNN 101" exactly as on slide 13 of the paper:
//
//   F^(0)_v = L_G(v)
//   F^(t)_v = σ( F^(t-1)_v W1^(t) + Σ_{u ∈ N(v)} F^(t-1)_u W2^(t) + b^(t) )
//
// and the graph-level readout of slide 14:
//
//   F = σ( Σ_{v ∈ V} F^(L)_v W + b ).
//
// Theorem (slide 26): ρ(GNN 101) = ρ(color refinement).
#ifndef GELC_GNN_GNN101_H_
#define GELC_GNN_GNN101_H_

#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace gelc {

/// One GNN-101 layer: weights for self and neighbor-sum terms plus bias.
struct Gnn101Layer {
  Matrix w1;  // d_in x d_out (self)
  Matrix w2;  // d_in x d_out (neighbor sum)
  Matrix b;   // 1 x d_out
  Activation act = Activation::kReLU;
};

/// Optional graph-level readout of slide 14.
struct Gnn101Readout {
  Matrix w;  // d x d_out
  Matrix b;  // 1 x d_out
  Activation act = Activation::kIdentity;
};

/// An immutable GNN-101 model: fixed weights, no forward of its own.
/// Inference lowers it to GEL and runs the compiled plan
/// (VertexEmbeddings / GraphEmbedding in core/compile_gnn.h).
class Gnn101Model {
 public:
  explicit Gnn101Model(std::vector<Gnn101Layer> layers);
  Gnn101Model(std::vector<Gnn101Layer> layers, Gnn101Readout readout);

  /// Random Gaussian-weight model: widths[0] is the input feature
  /// dimension, widths[i] the output of layer i. Used for the
  /// separation-power probes ("by varying weights and biases, an infinite
  /// family of vertex embeddings is obtained", slide 13).
  static Result<Gnn101Model> Random(const std::vector<size_t>& widths,
                                    Activation act, double weight_scale,
                                    Rng* rng);

  size_t num_layers() const { return layers_.size(); }
  size_t input_dim() const;
  size_t output_dim() const;
  bool has_readout() const { return has_readout_; }
  const std::vector<Gnn101Layer>& layers() const { return layers_; }
  const Gnn101Readout& readout() const { return readout_; }

 private:
  std::vector<Gnn101Layer> layers_;
  Gnn101Readout readout_;
  bool has_readout_ = false;
};

}  // namespace gelc

#endif  // GELC_GNN_GNN101_H_
