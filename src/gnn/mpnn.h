// Message Passing Neural Networks in the "classical" layered normal form
// (slides 37-41 and 47):
//
//   ϕ^(t)(x) := F^(t)( ϕ^(t-1)(x), agg_θ{ ϕ^(t-1)(u) : u ∈ N(x) } )
//
// with the update F^(t) an MLP over the concatenation [self | aggregate],
// the aggregation θ ∈ {sum, mean, max} (slide 69's fine-grained analysis),
// and an optional readout pool + MLP for graph embeddings (slide 40).
//
// Popular architectures are provided as constructors on top of this form:
// GIN (Xu et al.), GCN (Kipf & Welling) and GraphSAGE (mean variant).
#ifndef GELC_GNN_MPNN_H_
#define GELC_GNN_MPNN_H_

#include <optional>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "gnn/mlp.h"

namespace gelc {

/// The aggregation function θ applied to the bag of neighbor embeddings.
enum class Aggregation { kSum, kMean, kMax };

const char* AggregationName(Aggregation agg);

/// One MPNN layer: aggregation choice plus update MLP applied to
/// [self | aggregate] rows (input width = 2 * d_in).
struct MpnnLayer {
  Aggregation agg = Aggregation::kSum;
  Mlp update;
};

/// Graph-level readout: pool then MLP.
struct MpnnReadout {
  Aggregation pool = Aggregation::kSum;
  Mlp mlp;
};

/// A fixed-weight message passing network. Like every model in this
/// header it holds weights only; inference runs the compiled GEL plan
/// (VertexEmbeddings / GraphEmbedding in core/compile_gnn.h).
class MpnnModel {
 public:
  explicit MpnnModel(std::vector<MpnnLayer> layers);
  MpnnModel(std::vector<MpnnLayer> layers, MpnnReadout readout);

  /// Random model: `widths[0]` is the input dim; layer i maps widths[i] ->
  /// widths[i+1] with a 1-hidden-layer ReLU update MLP. A readout that
  /// pools with `agg` and maps through an MLP to `widths.back()` is
  /// attached.
  static Result<MpnnModel> Random(const std::vector<size_t>& widths,
                                  Aggregation agg, double weight_scale,
                                  Rng* rng);

  size_t num_layers() const { return layers_.size(); }
  size_t input_dim() const { return layers_.front().update.in_dim() / 2; }
  bool has_readout() const { return readout_.has_value(); }
  const std::vector<MpnnLayer>& layers() const { return layers_; }
  const std::optional<MpnnReadout>& readout() const { return readout_; }

 private:
  std::vector<MpnnLayer> layers_;
  std::optional<MpnnReadout> readout_;
};

/// Graph Isomorphism Network layer: h' = MLP((1 + eps) * h + Σ_u h_u).
/// With injective MLPs, GIN matches color refinement in separation power
/// (the "explicit construction", slide 52).
struct GinLayer {
  double eps = 0.0;
  Mlp mlp;  // d_in -> d_out
};

class GinModel {
 public:
  GinModel(std::vector<GinLayer> layers, Mlp readout_mlp);

  static Result<GinModel> Random(const std::vector<size_t>& widths,
                                 double weight_scale, Rng* rng);

  size_t input_dim() const { return layers_.front().mlp.in_dim(); }
  const std::vector<GinLayer>& layers() const { return layers_; }
  /// The readout: applied to the sum of the final vertex embeddings.
  const Mlp& readout_mlp() const { return readout_mlp_; }

 private:
  std::vector<GinLayer> layers_;
  Mlp readout_mlp_;
};

/// Kipf-Welling GCN: H' = act( D̃^{-1/2} Ã D̃^{-1/2} H W ), Ã = A + I.
class GcnModel {
 public:
  struct Layer {
    Matrix w;
    Activation act = Activation::kReLU;
  };

  explicit GcnModel(std::vector<Layer> layers);

  static Result<GcnModel> Random(const std::vector<size_t>& widths,
                                 double weight_scale, Rng* rng);

  size_t input_dim() const { return layers_.front().w.rows(); }
  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::vector<Layer> layers_;
};

/// GraphSAGE (mean aggregator): h' = act([h | mean_u h_u] W + b).
class GraphSageModel {
 public:
  struct Layer {
    Matrix w;  // 2*d_in x d_out
    Matrix b;  // 1 x d_out
    Activation act = Activation::kReLU;
  };

  explicit GraphSageModel(std::vector<Layer> layers);

  static Result<GraphSageModel> Random(const std::vector<size_t>& widths,
                                       double weight_scale, Rng* rng);

  size_t input_dim() const { return layers_.front().w.rows() / 2; }
  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::vector<Layer> layers_;
};

}  // namespace gelc

#endif  // GELC_GNN_MPNN_H_
