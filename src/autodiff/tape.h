// Reverse-mode automatic differentiation over dense matrices.
//
// The paper's learning setting (slides 16-20) selects a hypothesis by
// empirical risk minimization, "typically based on back propagation and
// gradient descent like methods". This module provides exactly that: a
// tape of matrix operations built during a forward pass, which Backward()
// traverses in reverse to accumulate gradients into leaf Parameters.
//
// Usage:
//   Parameter w(Matrix::RandomGaussian(4, 2, 0.1, &rng));
//   Tape tape;
//   ValueId x = tape.Input(features);
//   ValueId h = tape.Act(Activation::kReLU, tape.MatMul(x, tape.Param(&w)));
//   ValueId loss = tape.SoftmaxCrossEntropy(h, labels);
//   tape.Backward(loss);           // accumulates into w.grad
#ifndef GELC_AUTODIFF_TAPE_H_
#define GELC_AUTODIFF_TAPE_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace gelc {

/// A trainable leaf: value plus accumulated gradient of equal shape.
struct Parameter {
  explicit Parameter(Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad = Matrix(value.rows(), value.cols()); }

  Matrix value;
  Matrix grad;
};

/// Handle to a node on a Tape.
using ValueId = uint32_t;

/// A single-use computation tape. Build the forward graph, call Backward
/// once, read gradients. Reuse by constructing a fresh Tape per step.
class Tape {
 public:
  Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// A constant (no gradient flows into it).
  ValueId Input(Matrix m);
  /// A trainable leaf; Backward accumulates into p->grad. `p` must outlive
  /// the tape.
  ValueId Param(Parameter* p);

  ValueId Add(ValueId a, ValueId b);
  ValueId MatMul(ValueId a, ValueId b);
  /// Sparse-times-dense product csr * b via SpMM; the sparse operand is a
  /// constant (no gradient flows into it), so message passing never
  /// densifies the adjacency. Backward is csrᵀ * grad through `csr_t`,
  /// which must be the transpose of `csr` (Graph::Csr() caches both).
  /// Both pointers must outlive the tape.
  ValueId SparseMatMul(const CsrMatrix* csr, const CsrMatrix* csr_t,
                       ValueId b);
  ValueId Hadamard(ValueId a, ValueId b);
  ValueId Scale(ValueId a, double s);
  /// Entrywise activation.
  ValueId Act(Activation act, ValueId a);
  /// Adds a 1 x d bias row to every row of `a`.
  ValueId AddRowBroadcast(ValueId a, ValueId bias);
  /// [a | b] column concatenation.
  ValueId ConcatCols(ValueId a, ValueId b);
  /// Per-segment column sums (batched readout): rows
  /// [offsets[s], offsets[s+1]) of `a` reduce to output row s. `offsets`
  /// must be non-decreasing with offsets.front() == 0 and offsets.back()
  /// == a's row count; empty segments yield zero rows. Row s of the
  /// result carries the same bits as Matrix::ColSums of that block alone,
  /// so a single segment {0, n} is the whole-matrix column sum.
  ValueId SegmentSum(ValueId a, std::vector<size_t> offsets);
  /// Matrix product whose forward value is exactly MatMul(a, b), but
  /// whose backward pass accumulates b's gradient one row segment of `a`
  /// at a time: each segment's partial product aᵀ_s · g_s is formed from
  /// zero and added whole. Building a batch forward with this op makes
  /// the accumulated parameter gradient bit-identical to running the
  /// per-segment (per-graph) tapes one after another — the floating-point
  /// association matches, not just the real-number sum (DESIGN.md
  /// "Batched execution"). Over one segment {0, n} every bit, gradients
  /// included, is MatMul's, which is why a single graph trains as a
  /// batch of one.
  ValueId MatMulSegments(ValueId a, ValueId b, std::vector<size_t> offsets);
  /// AddRowBroadcast whose backward accumulates the bias gradient one
  /// row segment at a time (per-segment column sums added whole), the
  /// bias-row analogue of MatMulSegments.
  ValueId AddRowBroadcastSegments(ValueId a, ValueId bias,
                                  std::vector<size_t> offsets);
  /// Keeps only the given rows (gather): n x d -> |rows| x d.
  ValueId GatherRows(ValueId a, std::vector<size_t> rows);

  /// Mean softmax cross-entropy of row logits against integer labels;
  /// result is 1x1.
  ValueId SoftmaxCrossEntropy(ValueId logits, std::vector<size_t> labels);
  /// Mean squared error against a constant target; result is 1x1.
  ValueId Mse(ValueId pred, Matrix target);

  /// Runs reverse accumulation from `root` (must be 1x1).
  void Backward(ValueId root);

  const Matrix& value(ValueId id) const { return nodes_[id].value; }
  const Matrix& grad(ValueId id) const { return nodes_[id].grad; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  enum class Op {
    kInput,
    kParam,
    kAdd,
    kMatMul,
    kSparseMatMul,
    kHadamard,
    kScale,
    kAct,
    kAddRowBroadcast,
    kConcatCols,
    kSegmentSum,
    kMatMulSegments,
    kAddRowBroadcastSegments,
    kGatherRows,
    kSoftmaxXent,
    kMse,
  };

  struct Node {
    Op op;
    ValueId a = 0;
    ValueId b = 0;
    Matrix value;
    Matrix grad;
    // Op-specific payloads.
    double scalar = 0.0;
    Activation act = Activation::kIdentity;
    std::vector<size_t> indices;  // labels / gather rows / segment offsets
    Matrix aux;                   // cached softmax / target
    Parameter* param = nullptr;
    const CsrMatrix* csr = nullptr;    // kSparseMatMul forward operand
    const CsrMatrix* csr_t = nullptr;  // its transpose (backward operand)
  };

  ValueId Push(Node n);

  std::vector<Node> nodes_;
  // Reused by Backward's MatMul gradient products (MatMulInto) so the
  // backward pass does not allocate a fresh matrix per product.
  Matrix matmul_scratch_;
  // Reused by kMatMulSegments' per-segment partial products.
  Matrix segment_scratch_;
  // Reused by Backward's reachability marks (one byte per node).
  std::vector<unsigned char> live_;
};

}  // namespace gelc

#endif  // GELC_AUTODIFF_TAPE_H_
