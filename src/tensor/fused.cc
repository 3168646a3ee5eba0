#include "tensor/fused.h"

#include <algorithm>
#include <limits>

#include "base/aligned.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"

namespace gelc {

namespace {

// Same serial/shard thresholds as MatMul and SpMM (matrix.cc, sparse.cc):
// flop count below which the fused pass stays on the calling thread, and
// the target flops per shard when it fans out.
constexpr size_t kFusedSerialWork = size_t{1} << 16;
constexpr size_t kFusedShardWork = size_t{1} << 15;

// Aggregates csr row v of `values` into acc (theta's init/accumulate/
// finalize fold over neighbors in ascending adjacency order — the same
// order theta sees, because the interpreter enumerates the bound vertex
// ascending and CSR column indices are ascending). acc has the aggregate's
// output dimension: 1 for kCount, values.cols() otherwise.
inline void AggregateRow(const CsrMatrix& csr, size_t v, const Matrix& values,
                         FusedAgg agg, bool broadcast, bool gather_source,
                         double* acc) {
  const size_t d = values.cols();
  const double* vdata = values.data().data();
  const size_t begin = csr.row_offsets[v];
  const size_t end = csr.row_offsets[v + 1];
  switch (agg) {
    case FusedAgg::kSum:
    case FusedAgg::kMean: {
      std::fill(acc, acc + d, 0.0);
      for (size_t k = begin; k < end; ++k) {
        size_t u = broadcast ? 0 : gather_source ? v : csr.col_indices[k];
        const double* x = vdata + u * d;
        if (csr.weighted()) {
          simd::AddScaledRow(acc, x, csr.values[k], d);
        } else {
          simd::AddRow(acc, x, d);
        }
      }
      if (agg == FusedAgg::kMean && end != begin) {
        // Divide by the count (not multiply by the reciprocal): theta's
        // mean finalization divides, and the bits differ.
        simd::DivRow(acc, static_cast<double>(end - begin), d);
      }
      return;
    }
    case FusedAgg::kMax: {
      std::fill(acc, acc + d, -std::numeric_limits<double>::infinity());
      for (size_t k = begin; k < end; ++k) {
        size_t u = broadcast ? 0 : gather_source ? v : csr.col_indices[k];
        simd::MaxRow(acc, vdata + u * d, d);
      }
      // Empty bags finalize to zeros, exactly like theta::Max.
      if (end == begin) std::fill(acc, acc + d, 0.0);
      return;
    }
    case FusedAgg::kCount: {
      acc[0] = 0.0;
      for (size_t k = begin; k < end; ++k) acc[0] += 1.0;
      return;
    }
  }
}

// Aggregate output dimension given the input value dimension.
inline size_t AggOutDim(FusedAgg agg, size_t d) {
  return agg == FusedAgg::kCount ? 1 : d;
}

}  // namespace

void FusedLayerInto(size_t n, const std::vector<FusedLayerArg>& args,
                    const Matrix* bias, Activation act, Matrix* out) {
  GELC_CHECK(out != nullptr && !args.empty());
  const size_t out_dim = args[0].w->cols();
  size_t scratch_dim = 0;
  size_t row_work = 0;
  for (const FusedLayerArg& a : args) {
    GELC_CHECK(a.values != nullptr && a.w != nullptr);
    GELC_CHECK(a.w->cols() == out_dim);
    if (a.csr == nullptr) {
      GELC_CHECK(a.w->rows() == a.values->cols());
    } else {
      GELC_CHECK(a.w->rows() == AggOutDim(a.agg, a.values->cols()));
      GELC_CHECK(a.csr->rows == n);
      scratch_dim = std::max(scratch_dim, a.w->rows());
      if (a.csr->rows > 0) {
        row_work += (a.csr->nnz() / a.csr->rows + 1) * a.values->cols();
      }
    }
    row_work += a.w->rows() * out_dim;
  }
  // Size check includes the data vector: a moved-from Matrix keeps stale
  // rows/cols over an empty buffer.
  if (out->rows() != n || out->cols() != out_dim ||
      out->data().size() != n * out_dim) {
    *out = Matrix(n, out_dim);
  }
  const double* bias_row = bias == nullptr ? nullptr : bias->data().data();
  if (bias != nullptr) GELC_CHECK(bias->cols() == out_dim);
  double* odata = out->mutable_data().data();

  auto row_range = [&args, bias_row, act, odata, out_dim, scratch_dim](
                       size_t row_begin, size_t row_end) {
    // Per-shard scratch: the aggregated input row and the per-argument
    // partial sum. Rows are disjoint output slots, so any shard schedule
    // produces the same bits.
    AlignedVector agg_row(scratch_dim);
    AlignedVector partial(out_dim);
    for (size_t v = row_begin; v < row_end; ++v) {
      double* orow = odata + v * out_dim;
      for (size_t j = 0; j < out_dim; ++j) orow[j] = 0.0;
      for (size_t i = 0; i < args.size(); ++i) {
        const FusedLayerArg& a = args[i];
        // The first argument accumulates straight into the (zeroed)
        // output row; later arguments fold into `partial` and add in one
        // left-to-right step, matching `p_0 + p_1 + ...` elementwise
        // addition and omega's linear closure bit-for-bit.
        double* acc = i == 0 ? orow : partial.data();
        if (i != 0) {
          for (size_t j = 0; j < out_dim; ++j) acc[j] = 0.0;
        }
        const double* x;
        if (a.csr != nullptr) {
          AggregateRow(*a.csr, v, *a.values, a.agg, a.broadcast,
                       a.gather_source, agg_row.data());
          x = agg_row.data();
        } else {
          x = a.values->data().data() +
              (a.broadcast ? 0 : v) * a.values->cols();
        }
        const size_t d = a.w->rows();
        // Ascending-component fold through the weight — the same addition
        // chain per output cell as MatMul's i-k-j loop.
        simd::LinearAccum(acc, x, a.w->data().data(), d, out_dim);
        if (i != 0) simd::AddRow(orow, partial.data(), out_dim);
      }
      if (bias_row != nullptr) simd::AddRow(orow, bias_row, out_dim);
      for (size_t j = 0; j < out_dim; ++j) {
        orow[j] = ApplyActivation(act, orow[j]);
      }
    }
  };

  static obs::Counter* calls = obs::GetCounter("fused.layer_calls");
  static obs::Counter* rows = obs::GetCounter("fused.layer_rows");
  calls->Increment();
  rows->Add(n);
  simd::CountDispatch();
  GELC_OBS_SCOPE("fused_layer", {{"rows", n},
                                 {"args", args.size()},
                                 {"out_dim", out_dim}});
  row_work = std::max<size_t>(row_work, 1);
  const size_t work = n * row_work;
  if (work < kFusedSerialWork || n == 0) {
    static obs::Counter* serial = obs::GetCounter("fused.serial_dispatch");
    serial->Increment();
    row_range(0, n);
    return;
  }
  static obs::Counter* parallel = obs::GetCounter("fused.parallel_dispatch");
  parallel->Increment();
  const size_t grain = std::max<size_t>(1, kFusedShardWork / row_work);
  ParallelFor(0, n, grain, row_range);
}

void NeighborAggregateInto(const CsrMatrix& csr, const Matrix& values,
                           FusedAgg agg, bool broadcast, bool gather_source,
                           Matrix* out) {
  GELC_CHECK(out != nullptr);
  const size_t n = csr.rows;
  const size_t d_out = AggOutDim(agg, values.cols());
  if (out->rows() != n || out->cols() != d_out ||
      out->data().size() != n * d_out) {
    *out = Matrix(n, d_out);
  }
  double* odata = out->mutable_data().data();
  auto row_range = [&csr, &values, agg, broadcast, gather_source, odata,
                    d_out](size_t row_begin, size_t row_end) {
    for (size_t v = row_begin; v < row_end; ++v) {
      AggregateRow(csr, v, values, agg, broadcast, gather_source,
                   odata + v * d_out);
    }
  };
  static obs::Counter* calls = obs::GetCounter("fused.neighbor_agg_calls");
  calls->Increment();
  simd::CountDispatch();
  const size_t row_work =
      std::max<size_t>(1, n == 0 ? 1 : (csr.nnz() / std::max<size_t>(n, 1) +
                                        1) * values.cols());
  const size_t work = n * row_work;
  if (work < kFusedSerialWork || n == 0) {
    row_range(0, n);
    return;
  }
  const size_t grain = std::max<size_t>(1, kFusedShardWork / row_work);
  ParallelFor(0, n, grain, row_range);
}

void FusedGinCombineInto(const CsrMatrix& csr, const Matrix& values, double c,
                         Matrix* out) {
  GELC_CHECK(out != nullptr && out != &values);
  GELC_CHECK(csr.rows == values.rows() && csr.cols == values.rows());
  const size_t n = csr.rows;
  const size_t d = values.cols();
  if (out->rows() != n || out->cols() != d ||
      out->data().size() != n * d) {
    *out = Matrix(n, d);
  }
  const double* vdata = values.data().data();
  double* odata = out->mutable_data().data();
  auto row_range = [&csr, vdata, odata, c, d](size_t row_begin,
                                              size_t row_end) {
    // The neighbor sum folds into scratch first (not into the output row):
    // (c*x) + (n_1 + n_2 + ...) is the reference association, and IEEE
    // addition is not associative.
    AlignedVector agg(d);
    for (size_t v = row_begin; v < row_end; ++v) {
      std::fill(agg.begin(), agg.end(), 0.0);
      for (size_t k = csr.row_offsets[v]; k < csr.row_offsets[v + 1]; ++k) {
        simd::AddRow(agg.data(), vdata + size_t{csr.col_indices[k]} * d, d);
      }
      simd::GinCombineRow(odata + v * d, vdata + v * d, c, agg.data(), d);
    }
  };
  static obs::Counter* calls = obs::GetCounter("fused.gin_combine_calls");
  calls->Increment();
  simd::CountDispatch();
  GELC_OBS_SCOPE("fused_gin_combine", {{"rows", n}, {"d", d}});
  const size_t row_work =
      std::max<size_t>(1, (n == 0 ? 0 : csr.nnz() / n + 1) * d);
  const size_t work = n * row_work;
  if (work < kFusedSerialWork || n == 0) {
    row_range(0, n);
    return;
  }
  const size_t grain = std::max<size_t>(1, kFusedShardWork / row_work);
  ParallelFor(0, n, grain, row_range);
}

Matrix PoolRows(const Matrix& values, FusedAgg agg, size_t count,
                bool broadcast) {
  const size_t d = values.cols();
  const size_t d_out = AggOutDim(agg, d);
  Matrix out(1, d_out);
  double* acc = out.mutable_data().data();
  const double* vdata = values.data().data();
  switch (agg) {
    case FusedAgg::kSum:
    case FusedAgg::kMean: {
      for (size_t r = 0; r < count; ++r) {
        simd::AddRow(acc, vdata + (broadcast ? 0 : r) * d, d);
      }
      if (agg == FusedAgg::kMean && count != 0) {
        simd::DivRow(acc, static_cast<double>(count), d);
      }
      break;
    }
    case FusedAgg::kMax: {
      std::fill(acc, acc + d, -std::numeric_limits<double>::infinity());
      for (size_t r = 0; r < count; ++r) {
        simd::MaxRow(acc, vdata + (broadcast ? 0 : r) * d, d);
      }
      if (count == 0) std::fill(acc, acc + d, 0.0);
      break;
    }
    case FusedAgg::kCount: {
      acc[0] = 0.0;
      for (size_t r = 0; r < count; ++r) acc[0] += 1.0;
      break;
    }
  }
  return out;
}

}  // namespace gelc
