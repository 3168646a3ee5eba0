#include "core/plan_exec.h"

#include <cstring>
#include <vector>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/fused.h"
#include "tensor/simd.h"

namespace gelc {

namespace {

const CsrMatrix& CsrOf(const Graph& g, PlanCsr which) {
  switch (which) {
    case PlanCsr::kOut:
      return g.Csr().adjacency();
    case PlanCsr::kIn:
      return g.Csr().transpose();
    case PlanCsr::kNorm:
      return g.Csr().normalized();
  }
  return g.Csr().adjacency();
}

FusedAgg FusedAggOf(ThetaAgg::Kind kind) {
  switch (kind) {
    case ThetaAgg::Kind::kSum:
      return FusedAgg::kSum;
    case ThetaAgg::Kind::kMean:
      return FusedAgg::kMean;
    case ThetaAgg::Kind::kMax:
      return FusedAgg::kMax;
    case ThetaAgg::Kind::kCount:
      return FusedAgg::kCount;
    case ThetaAgg::Kind::kOpaque:
      break;
  }
  GELC_CHECK(false && "opaque aggregation has no fused kernel");
  return FusedAgg::kSum;
}

// Row pointer of a slot for logical row r (global slots broadcast row 0).
inline const double* RowOf(const Matrix& m, bool per_vertex, size_t r) {
  return m.data().data() + (per_vertex ? r : 0) * m.cols();
}

// Opaque θ: run the closures exactly as the interpreter does — init, one
// accumulate per included assignment (= per CSR entry), finalize with the
// included count.
void OpaqueNeighborAgg(const CsrMatrix& csr, const Matrix& values,
                       const ThetaAgg& theta, PlanGather gather,
                       Matrix* out) {
  const size_t d_in = theta.in_dim;
  for (size_t v = 0; v < csr.rows; ++v) {
    double* acc = out->mutable_data().data() + v * out->cols();
    theta.init(acc);
    const size_t begin = csr.row_offsets[v];
    const size_t end = csr.row_offsets[v + 1];
    for (size_t k = begin; k < end; ++k) {
      size_t row = gather == PlanGather::kBroadcast ? 0
                   : gather == PlanGather::kSource  ? v
                                                    : csr.col_indices[k];
      theta.accumulate(acc, values.data().data() + row * d_in);
    }
    theta.finalize(acc, end - begin);
  }
}

}  // namespace

Result<Matrix> ExecutePlan(const Plan& plan, const Graph& g) {
  if (plan.ops.empty() || plan.result >= plan.ops.size()) {
    return Status::InvalidArgument("empty or malformed plan");
  }
  const size_t n = g.num_vertices();
  static obs::Counter* execs = obs::GetCounter("plan.exec_calls");
  static obs::Counter* fused = obs::GetCounter("plan.fused_dispatch");
  execs->Increment();
  GELC_OBS_SCOPE("plan_exec", {{"ops", plan.ops.size()}, {"n", n}});

  std::vector<Matrix> slots(plan.ops.size());
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    const size_t rows = op.type.per_vertex ? n : 1;
    const size_t dim = op.type.dim;
    switch (op.kind) {
      case PlanOpKind::kLoadLabels: {
        for (size_t c : op.label_cols) {
          if (c >= g.feature_dim()) {
            return Status::InvalidArgument(
                "label index exceeds graph feature dimension");
          }
        }
        Matrix out(n, op.label_cols.size());
        for (size_t v = 0; v < n; ++v) {
          for (size_t j = 0; j < op.label_cols.size(); ++j) {
            out.At(v, j) = g.features().At(v, op.label_cols[j]);
          }
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kConstant: {
        Matrix out(1, op.constant.size());
        std::copy(op.constant.begin(), op.constant.end(),
                  out.mutable_data().begin());
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kConcat: {
        Matrix out(rows, dim);
        for (size_t r = 0; r < rows; ++r) {
          double* orow = out.mutable_data().data() + r * dim;
          size_t off = 0;
          for (uint32_t s : op.inputs) {
            const Matrix& in = slots[s];
            const double* irow =
                RowOf(in, plan.ops[s].type.per_vertex, r);
            std::memcpy(orow + off, irow, in.cols() * sizeof(double));
            off += in.cols();
          }
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kProject: {
        const Matrix& in = slots[op.inputs[0]];
        Matrix out(rows, dim);
        for (size_t r = 0; r < rows; ++r) {
          std::memcpy(out.mutable_data().data() + r * dim,
                      RowOf(in, plan.ops[op.inputs[0]].type.per_vertex, r) +
                          op.project_begin,
                      op.project_len * sizeof(double));
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kScale: {
        const Matrix& in = slots[op.inputs[0]];
        Matrix out(rows, dim);
        simd::ScaleRowCopy(out.mutable_data().data(), in.data().data(),
                           op.scale, out.data().size());
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kAdd:
      case PlanOpKind::kMul: {
        const Matrix& a = slots[op.inputs[0]];
        const Matrix& b = slots[op.inputs[1]];
        const bool apv = plan.ops[op.inputs[0]].type.per_vertex;
        const bool bpv = plan.ops[op.inputs[1]].type.per_vertex;
        Matrix out(rows, dim);
        for (size_t r = 0; r < rows; ++r) {
          const double* arow = RowOf(a, apv, r);
          const double* brow = RowOf(b, bpv, r);
          double* orow = out.mutable_data().data() + r * dim;
          if (op.kind == PlanOpKind::kAdd) {
            simd::AddRowsTo(orow, arow, brow, dim);
          } else {
            simd::MulRowsTo(orow, arow, brow, dim);
          }
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kActivation: {
        const Matrix& in = slots[op.inputs[0]];
        Matrix out(rows, dim);
        for (size_t k = 0; k < out.data().size(); ++k) {
          out.mutable_data()[k] = ApplyActivation(op.act, in.data()[k]);
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kPointwise: {
        Matrix out(rows, dim);
        std::vector<const double*> args(op.inputs.size());
        for (size_t r = 0; r < rows; ++r) {
          for (size_t k = 0; k < op.inputs.size(); ++k) {
            args[k] = RowOf(slots[op.inputs[k]],
                            plan.ops[op.inputs[k]].type.per_vertex, r);
          }
          op.fn->fn(args, out.mutable_data().data() + r * dim);
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kMlp: {
        size_t in_dim = 0;
        for (uint32_t s : op.inputs) in_dim += slots[s].cols();
        Matrix x(rows, in_dim);
        for (size_t r = 0; r < rows; ++r) {
          double* xrow = x.mutable_data().data() + r * in_dim;
          size_t off = 0;
          for (uint32_t s : op.inputs) {
            const Matrix& in = slots[s];
            std::memcpy(xrow + off,
                        RowOf(in, plan.ops[s].type.per_vertex, r),
                        in.cols() * sizeof(double));
            off += in.cols();
          }
        }
        slots[i] = op.mlp->Forward(x);
        break;
      }
      case PlanOpKind::kNeighborAgg: {
        const Matrix& values = slots[op.inputs[0]];
        const CsrMatrix& csr = CsrOf(g, op.csr);
        Matrix out(n, dim);
        if (op.agg == ThetaAgg::Kind::kOpaque) {
          OpaqueNeighborAgg(csr, values, *op.theta, op.gather, &out);
        } else {
          NeighborAggregateInto(csr, values, FusedAggOf(op.agg),
                                op.gather == PlanGather::kBroadcast,
                                op.gather == PlanGather::kSource, &out);
        }
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kPool: {
        const Matrix& values = slots[op.inputs[0]];
        const bool broadcast = op.gather == PlanGather::kBroadcast;
        if (op.agg == ThetaAgg::Kind::kOpaque) {
          Matrix out(1, dim);
          // The interpreter returns the zero table without touching θ
          // when the graph is empty; match that exactly.
          if (n > 0) {
            double* acc = out.mutable_data().data();
            op.theta->init(acc);
            for (size_t v = 0; v < n; ++v) {
              op.theta->accumulate(
                  acc, values.data().data() +
                           (broadcast ? 0 : v) * values.cols());
            }
            op.theta->finalize(acc, n);
          }
          slots[i] = std::move(out);
        } else {
          slots[i] = PoolRows(values, FusedAggOf(op.agg), n, broadcast);
        }
        break;
      }
      case PlanOpKind::kFusedLayer: {
        fused->Increment();
        std::vector<FusedLayerArg> args;
        args.reserve(op.args.size());
        for (const PlanLayerArg& a : op.args) {
          FusedLayerArg fa;
          fa.values = &slots[a.input];
          fa.w = a.w.get();
          if (a.aggregated) {
            fa.csr = &CsrOf(g, a.csr);
            fa.agg = FusedAggOf(a.agg);
            fa.broadcast = a.gather == PlanGather::kBroadcast;
            fa.gather_source = a.gather == PlanGather::kSource;
          } else {
            fa.broadcast = !plan.ops[a.input].type.per_vertex;
          }
          args.push_back(fa);
        }
        Matrix out(rows, dim);
        FusedLayerInto(rows, args, op.bias.get(), op.act, &out);
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kGinCombine: {
        fused->Increment();
        Matrix out(n, dim);
        FusedGinCombineInto(CsrOf(g, op.csr), slots[op.inputs[0]], op.scale,
                            &out);
        slots[i] = std::move(out);
        break;
      }
      case PlanOpKind::kPoolReadout: {
        fused->Increment();
        const Matrix& values = slots[op.inputs[0]];
        Matrix pooled = PoolRows(values, FusedAggOf(op.agg), n,
                                 op.gather == PlanGather::kBroadcast);
        FusedLayerArg fa;
        fa.values = &pooled;
        fa.w = op.weight.get();
        Matrix out(1, dim);
        FusedLayerInto(1, {fa}, op.bias.get(), op.act, &out);
        slots[i] = std::move(out);
        break;
      }
    }
  }
  return std::move(slots[plan.result]);
}

}  // namespace gelc
