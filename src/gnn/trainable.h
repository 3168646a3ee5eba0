// Trainable GNNs and empirical-risk-minimization loops (slides 16-20).
//
// The paper's learning recipe: a training set T of (graph, tuple, value)
// triples, a hypothesis class F (here: GNN-101-style networks with
// learnable weights), a loss L (cross entropy), and an optimizer searching
//   argmin_{ξ ∈ F} (1/|T|) Σ L(ξ(G_i, v_i), Ψ(G_i, v_i)).
// Three task shapes are provided, matching slides 7-9: graph-level
// classification (p = 0), node classification (p = 1), link prediction
// (p = 2).
#ifndef GELC_GNN_TRAINABLE_H_
#define GELC_GNN_TRAINABLE_H_

#include <memory>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tape.h"
#include "base/rng.h"
#include "base/status.h"
#include "gnn/mpnn.h"
#include "graph/batch.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace gelc {

/// A GNN-101 message-passing network with learnable weights:
///   F^(t) = act( F^(t-1) W1 + A F^(t-1) W2 + b ),
/// followed by a linear classifier head.
class TrainableGnn {
 public:
  struct Config {
    /// widths[0] = input feature dim; widths[1..] = hidden widths.
    std::vector<size_t> widths;
    size_t num_outputs = 2;
    Activation act = Activation::kReLU;
    double init_scale = 0.3;
    uint64_t seed = 1;
  };

  static Result<std::unique_ptr<TrainableGnn>> Create(const Config& config);

  /// Every forward runs over a GraphBatch: a single graph is a batch of
  /// one (GraphBatch::Create({&g})), so node, link and graph tasks share
  /// one forward. `batch` must outlive the tape.
  ///
  /// Builds the message-passing forward pass over the block-diagonal
  /// operators; returns the num_vertices x hidden embedding node. Message
  /// passing cannot cross a block boundary, so block i is graph i's
  /// embedding alone. Layer parameter gradients accumulate one block at
  /// a time (Tape::MatMulSegments), so a batch of k has the bits of k
  /// batches of one run back to back.
  ValueId VertexEmbeddings(Tape* tape, const GraphBatch& batch) const;
  /// Vertex embeddings followed by the linear head: num_vertices x
  /// num_outputs.
  ValueId NodeLogits(Tape* tape, const GraphBatch& batch) const;
  /// Sum-pooled embeddings followed by the head: row i holds graph i's
  /// 1 x num_outputs logits.
  ValueId GraphLogits(Tape* tape, const GraphBatch& batch) const;
  /// Pairwise head for link prediction: |pairs| x num_outputs logits from
  /// [z_u | z_v | z_u ⊙ z_v]; u and v are batch vertex rows.
  ValueId PairLogits(Tape* tape, const GraphBatch& batch,
                     const std::vector<std::pair<VertexId, VertexId>>& pairs)
      const;

  /// All trainable parameters (for optimizer registration).
  std::vector<Parameter*> Parameters();

 private:
  struct Layer {
    Parameter w1, w2, b;
  };
  TrainableGnn(const Config& config, Rng* rng);

  Config config_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::unique_ptr<Parameter> head_w_;       // hidden -> outputs
  std::unique_ptr<Parameter> head_b_;
  std::unique_ptr<Parameter> pair_head_w_;  // 3*hidden -> outputs
  std::unique_ptr<Parameter> pair_head_b_;
};

/// Outcome of one ERM run.
struct TrainReport {
  std::vector<double> loss_history;  // per epoch
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
};

struct TrainOptions {
  size_t epochs = 150;
  double learning_rate = 0.01;
  std::vector<size_t> hidden_widths = {16, 16};
  uint64_t seed = 7;
  /// Graph-classification minibatch size: each epoch builds one tape per
  /// GraphBatch of up to this many training graphs. Every size takes one
  /// optimizer step per epoch on the sum of the per-graph gradients; 0
  /// packs the whole training split into a single batch (DESIGN.md
  /// "Batched execution").
  size_t batch_size = 0;
};

/// Semi-supervised node classification (slide 8: paper subjects in a
/// citation network).
Result<TrainReport> TrainNodeClassifier(const NodeDataset& data,
                                        const TrainOptions& options);

/// Graph classification (slide 7: molecule property prediction). The
/// first `train_fraction` of the dataset is the training split.
Result<TrainReport> TrainGraphClassifier(const GraphDataset& data,
                                         const TrainOptions& options,
                                         double train_fraction = 0.7);

/// Link prediction (slide 9: "will connect", p = 2 vertex embeddings).
Result<TrainReport> TrainLinkPredictor(const LinkDataset& data,
                                       const TrainOptions& options);

}  // namespace gelc

#endif  // GELC_GNN_TRAINABLE_H_
