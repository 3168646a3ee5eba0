#include "autodiff/tape.h"

#include <algorithm>
#include <cmath>

#include "base/alloc_tune.h"
#include "base/logging.h"
#include "tensor/segment.h"

namespace gelc {

// Tapes are the allocator churn the tuning exists for: one tape per
// (mini)batch per epoch, each full of node-sized matrices.
Tape::Tape() { TuneAllocForTensorChurn(); }

namespace {

// Segment offsets contract shared by the segment-aware ops: k+1
// non-decreasing entries covering [0, rows).
void CheckSegmentOffsets(size_t rows, const std::vector<size_t>& offsets) {
  GELC_CHECK(!offsets.empty());
  GELC_CHECK(offsets.front() == 0);
  GELC_CHECK(offsets.back() == rows);
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    GELC_DCHECK_LE(offsets[s], offsets[s + 1]);
  }
}

}  // namespace

ValueId Tape::Push(Node n) {
  n.grad = Matrix(n.value.rows(), n.value.cols());
  nodes_.push_back(std::move(n));
  return static_cast<ValueId>(nodes_.size() - 1);
}

ValueId Tape::Input(Matrix m) {
  Node n;
  n.op = Op::kInput;
  n.value = std::move(m);
  return Push(std::move(n));
}

ValueId Tape::Param(Parameter* p) {
  GELC_CHECK(p != nullptr);
  Node n;
  n.op = Op::kParam;
  n.param = p;
  n.value = p->value;
  return Push(std::move(n));
}

ValueId Tape::Add(ValueId a, ValueId b) {
  Node n;
  n.op = Op::kAdd;
  n.a = a;
  n.b = b;
  n.value = nodes_[a].value + nodes_[b].value;
  return Push(std::move(n));
}

ValueId Tape::MatMul(ValueId a, ValueId b) {
  Node n;
  n.op = Op::kMatMul;
  n.a = a;
  n.b = b;
  n.value = nodes_[a].value.MatMul(nodes_[b].value);
  return Push(std::move(n));
}

ValueId Tape::SparseMatMul(const CsrMatrix* csr, const CsrMatrix* csr_t,
                           ValueId b) {
  GELC_CHECK(csr != nullptr && csr_t != nullptr);
  GELC_CHECK(csr->rows == csr_t->cols && csr->cols == csr_t->rows);
  Node n;
  n.op = Op::kSparseMatMul;
  n.b = b;
  n.csr = csr;
  n.csr_t = csr_t;
  n.value = SpMM(*csr, nodes_[b].value);
  return Push(std::move(n));
}

ValueId Tape::Hadamard(ValueId a, ValueId b) {
  Node n;
  n.op = Op::kHadamard;
  n.a = a;
  n.b = b;
  n.value = nodes_[a].value.Hadamard(nodes_[b].value);
  return Push(std::move(n));
}

ValueId Tape::Scale(ValueId a, double s) {
  Node n;
  n.op = Op::kScale;
  n.a = a;
  n.scalar = s;
  n.value = nodes_[a].value * s;
  return Push(std::move(n));
}

ValueId Tape::Act(Activation act, ValueId a) {
  Node n;
  n.op = Op::kAct;
  n.a = a;
  n.act = act;
  n.value = ApplyActivation(act, nodes_[a].value);
  return Push(std::move(n));
}

ValueId Tape::AddRowBroadcast(ValueId a, ValueId bias) {
  Node n;
  n.op = Op::kAddRowBroadcast;
  n.a = a;
  n.b = bias;
  n.value = nodes_[a].value.AddRowBroadcast(nodes_[bias].value);
  return Push(std::move(n));
}

ValueId Tape::ConcatCols(ValueId a, ValueId b) {
  Node n;
  n.op = Op::kConcatCols;
  n.a = a;
  n.b = b;
  n.value = nodes_[a].value.ConcatCols(nodes_[b].value);
  return Push(std::move(n));
}

ValueId Tape::SegmentSum(ValueId a, std::vector<size_t> offsets) {
  Node n;
  n.op = Op::kSegmentSum;
  n.a = a;
  n.value = gelc::SegmentSum(nodes_[a].value, offsets);
  n.indices = std::move(offsets);
  return Push(std::move(n));
}

ValueId Tape::MatMulSegments(ValueId a, ValueId b,
                             std::vector<size_t> offsets) {
  CheckSegmentOffsets(nodes_[a].value.rows(), offsets);
  Node n;
  n.op = Op::kMatMulSegments;
  n.a = a;
  n.b = b;
  n.value = nodes_[a].value.MatMul(nodes_[b].value);
  n.indices = std::move(offsets);
  return Push(std::move(n));
}

ValueId Tape::AddRowBroadcastSegments(ValueId a, ValueId bias,
                                      std::vector<size_t> offsets) {
  CheckSegmentOffsets(nodes_[a].value.rows(), offsets);
  Node n;
  n.op = Op::kAddRowBroadcastSegments;
  n.a = a;
  n.b = bias;
  n.value = nodes_[a].value.AddRowBroadcast(nodes_[bias].value);
  n.indices = std::move(offsets);
  return Push(std::move(n));
}

ValueId Tape::GatherRows(ValueId a, std::vector<size_t> rows) {
  const Matrix& in = nodes_[a].value;
  Node n;
  n.op = Op::kGatherRows;
  n.a = a;
  n.value = Matrix(rows.size(), in.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    GELC_CHECK(rows[i] < in.rows());
    for (size_t j = 0; j < in.cols(); ++j)
      n.value.At(i, j) = in.At(rows[i], j);
  }
  n.indices = std::move(rows);
  return Push(std::move(n));
}

ValueId Tape::SoftmaxCrossEntropy(ValueId logits, std::vector<size_t> labels) {
  const Matrix& lg = nodes_[logits].value;
  GELC_CHECK(labels.size() == lg.rows());
  Matrix probs = RowSoftmax(lg);
  double loss = 0.0;
  for (size_t i = 0; i < lg.rows(); ++i) {
    GELC_CHECK(labels[i] < lg.cols());
    loss -= std::log(std::max(probs.At(i, labels[i]), 1e-300));
  }
  loss /= static_cast<double>(lg.rows());
  Node n;
  n.op = Op::kSoftmaxXent;
  n.a = logits;
  n.value = Matrix(1, 1, loss);
  n.aux = std::move(probs);
  n.indices = std::move(labels);
  return Push(std::move(n));
}

ValueId Tape::Mse(ValueId pred, Matrix target) {
  const Matrix& p = nodes_[pred].value;
  GELC_CHECK(p.rows() == target.rows() && p.cols() == target.cols());
  double loss = 0.0;
  for (size_t i = 0; i < p.rows(); ++i)
    for (size_t j = 0; j < p.cols(); ++j) {
      double d = p.At(i, j) - target.At(i, j);
      loss += d * d;
    }
  loss /= static_cast<double>(p.size());
  Node n;
  n.op = Op::kMse;
  n.a = pred;
  n.value = Matrix(1, 1, loss);
  n.aux = std::move(target);
  return Push(std::move(n));
}

void Tape::Backward(ValueId root) {
  GELC_CHECK(root < nodes_.size());
  GELC_CHECK(nodes_[root].value.rows() == 1 && nodes_[root].value.cols() == 1);
  nodes_[root].grad = Matrix(1, 1, 1.0);
  // Dead-branch skip, two layers deep. (1) Reachability: a node feeds
  // the loss iff a consumer visited earlier in the reverse sweep marked
  // it — an O(1) flag per node, independent of the data. (2) Value: a
  // reached node whose accumulated gradient is exactly zero contributes
  // exactly nothing to its operands, so its backward products are
  // skipped and its operands stay unmarked unless a live consumer marks
  // them. The value check earns its keep: ReLU masks routinely zero
  // whole per-graph gradient matrices mid-training, which on the
  // molecule workloads kills most backward matmuls. IsZero early-exits
  // at the first nonzero entry, so live nodes pay O(1); full scans only
  // happen on matrices that really are zero, where the skipped products
  // repay the scan many times over (its predecessor, an unconditional
  // FrobeniusNorm, scanned every gradient on every pass and reached 24%
  // of batched training time). Both skips are bit-exact: node grads
  // never hold -0.0 (they start at +0.0, +0.0 + -0.0 == +0.0, and exact
  // cancellation rounds to +0.0), so propagating an exactly-zero
  // gradient is x += ±0.0 everywhere, which changes no bit.
  live_.assign(static_cast<size_t>(root) + 1, 0);
  live_[root] = 1;
  for (size_t idx = root + 1; idx-- > 0;) {
    Node& n = nodes_[idx];
    const Matrix& g = n.grad;
    // Params flush their (possibly zero) accumulated grad regardless,
    // matching the historical contract.
    if (n.op != Op::kParam && (!live_[idx] || g.IsZero())) continue;
    switch (n.op) {
      case Op::kInput:
      case Op::kParam:
        break;  // leaves
      case Op::kSparseMatMul:
        live_[n.b] = 1;  // the sparse operand is a constant
        break;
      case Op::kAdd:
      case Op::kMatMul:
      case Op::kHadamard:
      case Op::kAddRowBroadcast:
      case Op::kConcatCols:
      case Op::kMatMulSegments:
      case Op::kAddRowBroadcastSegments:
        live_[n.a] = 1;
        live_[n.b] = 1;
        break;
      default:  // unary ops: kScale, kAct, the reductions, the losses
        live_[n.a] = 1;
        break;
    }
    switch (n.op) {
      case Op::kInput:
        break;
      case Op::kParam:
        n.param->grad += g;
        break;
      case Op::kAdd:
        nodes_[n.a].grad += g;
        nodes_[n.b].grad += g;
        break;
      case Op::kMatMul:
        // The two gradient products go through a scratch buffer reused
        // across the whole backward pass (and across training steps),
        // instead of allocating a fresh matrix per product.
        g.MatMulInto(nodes_[n.b].value.Transposed(), &matmul_scratch_);
        nodes_[n.a].grad += matmul_scratch_;
        nodes_[n.a].value.Transposed().MatMulInto(g, &matmul_scratch_);
        nodes_[n.b].grad += matmul_scratch_;
        break;
      case Op::kSparseMatMul:
        // d/dB (A·B) pulled back through the cached transpose CSR; the
        // sparse operand is constant, so no second product is needed.
        SpMMInto(*n.csr_t, g, &matmul_scratch_);
        nodes_[n.b].grad += matmul_scratch_;
        break;
      case Op::kHadamard:
        nodes_[n.a].grad += g.Hadamard(nodes_[n.b].value);
        nodes_[n.b].grad += g.Hadamard(nodes_[n.a].value);
        break;
      case Op::kScale:
        nodes_[n.a].grad += g * n.scalar;
        break;
      case Op::kAct: {
        // Fused g ⊙ act'(in) accumulate: one pass, no temporary. Each
        // entry still computes t = g·f then ga += t, so the bits match
        // the copy-multiply-add formulation exactly.
        const auto& in = nodes_[n.a].value.data();
        const auto& gd = g.data();
        auto& ga = nodes_[n.a].grad.mutable_data();
        for (size_t i = 0; i < ga.size(); ++i)
          ga[i] += gd[i] * ActivationGrad(n.act, in[i]);
        break;
      }
      case Op::kAddRowBroadcast:
        nodes_[n.a].grad += g;
        nodes_[n.b].grad += g.ColSums();
        break;
      case Op::kConcatCols: {
        Matrix& ga = nodes_[n.a].grad;
        Matrix& gb = nodes_[n.b].grad;
        size_t da = ga.cols();
        for (size_t i = 0; i < g.rows(); ++i) {
          for (size_t j = 0; j < da; ++j) ga.At(i, j) += g.At(i, j);
          for (size_t j = 0; j < gb.cols(); ++j)
            gb.At(i, j) += g.At(i, da + j);
        }
        break;
      }
      case Op::kSegmentSum: {
        Matrix& ga = nodes_[n.a].grad;
        for (size_t s = 0; s + 1 < n.indices.size(); ++s)
          for (size_t i = n.indices[s]; i < n.indices[s + 1]; ++i)
            for (size_t j = 0; j < ga.cols(); ++j)
              ga.At(i, j) += g.At(s, j);
        break;
      }
      case Op::kMatMulSegments: {
        // da = g · bᵀ touches each row independently — same as kMatMul.
        g.MatMulInto(nodes_[n.b].value.Transposed(), &matmul_scratch_);
        nodes_[n.a].grad += matmul_scratch_;
        // db = aᵀ · g accumulated one segment at a time: the partial
        // product aᵀ_s · g_s is formed from zero (rows ascending, the
        // MatMulImpl i-k-j chain) and added whole, reproducing the
        // association of per-segment tapes run back to back bit-for-bit.
        const Matrix& av = nodes_[n.a].value;
        Matrix& gb = nodes_[n.b].grad;
        size_t din = av.cols();
        size_t dout = g.cols();
        for (size_t s = 0; s + 1 < n.indices.size(); ++s) {
          size_t begin = n.indices[s];
          size_t end = n.indices[s + 1];
          if (begin == end) continue;
          if (segment_scratch_.rows() == din &&
              segment_scratch_.cols() == dout) {
            std::fill(segment_scratch_.mutable_data().begin(),
                      segment_scratch_.mutable_data().end(), 0.0);
          } else {
            segment_scratch_ = Matrix(din, dout);
          }
          // v-outer order streams each row of `a` and `g` exactly once
          // (the h-outer alternative re-reads both matrices din times,
          // with strided column access into `a`), and v is unrolled by 4
          // so each scratch cell is read and written once per four rows
          // instead of once per row. Per scratch cell (h, j) the
          // additions still happen one at a time in ascending-v order
          // (sequential rounding steps through a register), so the
          // partial product's bits are unchanged.
          const double* av_data = av.data().data();
          const double* g_data = g.data().data();
          double* scratch = segment_scratch_.mutable_data().data();
          size_t v = begin;
          for (; v + 4 <= end; v += 4) {
            const double* a0 = &av_data[v * din];
            const double* a1 = a0 + din;
            const double* a2 = a1 + din;
            const double* a3 = a2 + din;
            const double* g0 = &g_data[v * dout];
            const double* g1 = g0 + dout;
            const double* g2 = g1 + dout;
            const double* g3 = g2 + dout;
            for (size_t h = 0; h < din; ++h) {
              double* orow = &scratch[h * dout];
              for (size_t j = 0; j < dout; ++j) {
                double t = orow[j];
                t += a0[h] * g0[j];
                t += a1[h] * g1[j];
                t += a2[h] * g2[j];
                t += a3[h] * g3[j];
                orow[j] = t;
              }
            }
          }
          for (; v < end; ++v) {
            const double* arow = &av_data[v * din];
            const double* grow = &g_data[v * dout];
            for (size_t h = 0; h < din; ++h) {
              double a_vh = arow[h];
              double* orow = &scratch[h * dout];
              for (size_t j = 0; j < dout; ++j) orow[j] += a_vh * grow[j];
            }
          }
          gb += segment_scratch_;
        }
        break;
      }
      case Op::kAddRowBroadcastSegments: {
        nodes_[n.a].grad += g;
        // Bias gradient: per-segment column sums (rows ascending from
        // zero, the ColSums chain), each added whole — see
        // kMatMulSegments for why the association matters.
        Matrix& gb = nodes_[n.b].grad;
        size_t cols = gb.cols();
        std::vector<double> partial(cols);
        for (size_t s = 0; s + 1 < n.indices.size(); ++s) {
          size_t begin = n.indices[s];
          size_t end = n.indices[s + 1];
          if (begin == end) continue;
          std::fill(partial.begin(), partial.end(), 0.0);
          for (size_t i = begin; i < end; ++i)
            for (size_t j = 0; j < cols; ++j) partial[j] += g.At(i, j);
          for (size_t j = 0; j < cols; ++j) gb.At(0, j) += partial[j];
        }
        break;
      }
      case Op::kGatherRows: {
        Matrix& ga = nodes_[n.a].grad;
        for (size_t i = 0; i < n.indices.size(); ++i)
          for (size_t j = 0; j < ga.cols(); ++j)
            ga.At(n.indices[i], j) += g.At(i, j);
        break;
      }
      case Op::kSoftmaxXent: {
        double scale = g.At(0, 0) / static_cast<double>(n.aux.rows());
        Matrix& ga = nodes_[n.a].grad;
        for (size_t i = 0; i < n.aux.rows(); ++i) {
          for (size_t j = 0; j < n.aux.cols(); ++j) {
            double ind = (j == n.indices[i]) ? 1.0 : 0.0;
            ga.At(i, j) += scale * (n.aux.At(i, j) - ind);
          }
        }
        break;
      }
      case Op::kMse: {
        double scale =
            2.0 * g.At(0, 0) / static_cast<double>(n.aux.size());
        Matrix& ga = nodes_[n.a].grad;
        const Matrix& pred = nodes_[n.a].value;
        for (size_t i = 0; i < pred.rows(); ++i)
          for (size_t j = 0; j < pred.cols(); ++j)
            ga.At(i, j) += scale * (pred.At(i, j) - n.aux.At(i, j));
        break;
      }
    }
  }
}

}  // namespace gelc
