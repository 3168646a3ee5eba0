// Fused CSR-row kernels for compiled GEL plans (core/plan_exec.h), which
// are how every fixed-weight GNN runs (core/compile_gnn.h).
//
// Each kernel walks every output row once, doing neighbor aggregation,
// the per-argument linear maps, the bias and the activation in a single
// pass — no n x d aggregate or concatenation temporaries. Accumulation
// orders are pinned to the unfused building blocks (SpMM, MatMul,
// AddRowBroadcast, ApplyActivation, and theta's init/accumulate/finalize
// closures), so fused and unfused paths produce identical bits, and rows
// are disjoint output slots under ParallelFor, so any thread count
// produces identical bits too.
#ifndef GELC_TENSOR_FUSED_H_
#define GELC_TENSOR_FUSED_H_

#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace gelc {

/// One argument of a fused layer: rows of `values` feed the weight slice
/// `w`, either directly (self argument) or after aggregation over the
/// matching `csr` row (neighbor argument).
struct FusedLayerArg {
  /// Vertex table (n x d_i), or a single row when `broadcast` is set.
  const Matrix* values = nullptr;
  /// d_agg x out_dim weight slice (d_agg = 1 for kCount, d_i otherwise).
  const Matrix* w = nullptr;
  /// Non-null: aggregate `values` rows over csr row v before the weight.
  const CsrMatrix* csr = nullptr;
  FusedAgg agg = FusedAgg::kSum;
  /// Read row 0 of `values` for every vertex (closed subexpression).
  bool broadcast = false;
  /// Aggregated arguments only: each bag element is row v itself rather
  /// than the neighbor's row (value independent of the bound variable),
  /// folded once per neighbor like the interpreter does.
  bool gather_source = false;
};

/// out = act( Σ_i partial_i + bias ): partial_i accumulates argument i's
/// (possibly aggregated) row through w_i in ascending component order
/// from 0; partials combine left to right; `bias` (nullable, 1 x out)
/// adds last; `act` applies entrywise. Identical bits to the
/// MatMul/SpMM/operator+/AddRowBroadcast/ApplyActivation composition and
/// to core/omega.h's `linear` closure. `n` is the output row count.
/// Every cell of *out is written, so its prior contents never matter.
/// Each shard runs one simd::FusedLayerRows call; activations other than
/// the identity and ReLU apply afterwards, per shard, as ApplyActivation.
void FusedLayerInto(size_t n, const std::vector<FusedLayerArg>& args,
                    const Matrix* bias, Activation act, Matrix* out);

/// Neighbor aggregation matching theta bit-for-bit: row v of *out is
/// θ({row(u) : u in csr row v}) with sum/mean/max over d columns and
/// count producing n x 1 degrees. `broadcast` / `gather_source` select
/// the bag-element row as in FusedLayerArg.
void NeighborAggregateInto(const CsrMatrix& csr, const Matrix& values,
                           FusedAgg agg, bool broadcast, bool gather_source,
                           Matrix* out);

/// GIN combine fused with the neighbor sum, one CSR pass:
/// out[v] = c * values[v] + Σ_{u in csr row v} values[u]. Identical bits
/// to (values * c) + SpMM(csr, values). One simd::GinCombineRows call per
/// shard writes every cell of *out.
void FusedGinCombineInto(const CsrMatrix& csr, const Matrix& values, double c,
                         Matrix* out);

/// Pools `count` rows into one: rows 0..count-1 of `values`, or row 0
/// repeated `count` times when `broadcast` is set. Fold order and
/// finalization match theta (sum/mean/max over columns in ascending row
/// order — the ColSums order — count -> 1 x 1). Serial: a single-row
/// reduction.
Matrix PoolRows(const Matrix& values, FusedAgg agg, size_t count,
                bool broadcast);

/// PoolRows into *out (reshaped to 1 x d_out if needed); every cell is
/// written, so its prior contents never matter.
void PoolRowsInto(const Matrix& values, FusedAgg agg, size_t count,
                  bool broadcast, Matrix* out);

}  // namespace gelc

#endif  // GELC_TENSOR_FUSED_H_
