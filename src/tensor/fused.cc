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

// Aggregate output dimension given the input value dimension.
inline size_t AggOutDim(FusedAgg agg, size_t d) {
  return agg == FusedAgg::kCount ? 1 : d;
}

// The simd view of θ over `csr` rows of `values` (the weight left unset).
simd::LayerArg AggregatedArg(const CsrMatrix& csr, const Matrix& values,
                             FusedAgg agg, bool broadcast,
                             bool gather_source) {
  simd::LayerArg a;
  a.values = values.data().data();
  a.d = values.cols();
  a.row_offsets = csr.row_offsets.data();
  a.col_indices = csr.col_indices.data();
  a.csr_values = csr.weighted() ? csr.values.data() : nullptr;
  a.agg = agg;
  a.broadcast = broadcast;
  a.gather_source = gather_source;
  return a;
}

}  // namespace

void FusedLayerInto(size_t n, const std::vector<FusedLayerArg>& args,
                    const Matrix* bias, Activation act, Matrix* out) {
  GELC_CHECK(out != nullptr && !args.empty());
  const size_t out_dim = args[0].w->cols();
  std::vector<simd::LayerArg> flat(args.size());
  size_t agg_dim = 0;
  size_t row_work = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    const FusedLayerArg& a = args[i];
    GELC_CHECK(a.values != nullptr && a.w != nullptr);
    GELC_CHECK(a.w->cols() == out_dim);
    simd::LayerArg& f = flat[i];
    if (a.csr == nullptr) {
      GELC_CHECK(a.w->rows() == a.values->cols());
      f.values = a.values->data().data();
      f.d = a.values->cols();
      f.broadcast = a.broadcast;
    } else {
      GELC_CHECK(a.w->rows() == AggOutDim(a.agg, a.values->cols()));
      GELC_CHECK(a.csr->rows == n);
      f = AggregatedArg(*a.csr, *a.values, a.agg, a.broadcast,
                        a.gather_source);
      agg_dim = std::max(agg_dim, a.w->rows());
      if (a.csr->rows > 0) {
        row_work += (a.csr->nnz() / a.csr->rows + 1) * a.values->cols();
      }
    }
    f.w = a.w->data().data();
    f.w_rows = a.w->rows();
    row_work += a.w->rows() * out_dim;
  }
  if (out->rows() != n || out->cols() != out_dim) *out = Matrix(n, out_dim);
  if (bias != nullptr) GELC_CHECK(bias->cols() == out_dim);
  simd::FusedLayerSpec spec;
  spec.args = flat.data();
  spec.num_args = flat.size();
  spec.bias = bias == nullptr ? nullptr : bias->data().data();
  spec.relu = act == Activation::kReLU;
  spec.out_dim = out_dim;
  spec.agg_dim = agg_dim;
  spec.out = out->mutable_data().data();
  const bool scalar_act =
      act != Activation::kIdentity && act != Activation::kReLU;

  auto row_range = [&spec, act, scalar_act](size_t row_begin,
                                           size_t row_end) {
    // Per-shard scratch; rows are disjoint output slots, so any shard
    // schedule produces the same bits.
    AlignedVector scratch(simd::FusedLayerScratchSize(spec));
    simd::FusedLayerRows(spec, row_begin, row_end, scratch.data());
    if (!scalar_act) return;
    double* first = spec.out + row_begin * spec.out_dim;
    double* last = spec.out + row_end * spec.out_dim;
    for (double* p = first; p != last; ++p) *p = ApplyActivation(act, *p);
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
  // Whole row blocks per shard keep the AVX2 tier on its 4-row tile.
  const size_t block = simd::kFusedLayerRowBlock;
  const size_t grain =
      (std::max<size_t>(1, kFusedShardWork / row_work) + block - 1) / block *
      block;
  ParallelFor(0, n, grain, row_range);
}

void NeighborAggregateInto(const CsrMatrix& csr, const Matrix& values,
                           FusedAgg agg, bool broadcast, bool gather_source,
                           Matrix* out) {
  GELC_CHECK(out != nullptr);
  const size_t n = csr.rows;
  const size_t d_out = AggOutDim(agg, values.cols());
  if (out->rows() != n || out->cols() != d_out) *out = Matrix(n, d_out);
  const simd::LayerArg a =
      AggregatedArg(csr, values, agg, broadcast, gather_source);
  double* odata = out->mutable_data().data();
  auto row_range = [&a, odata](size_t row_begin, size_t row_end) {
    simd::AggregateRows(a, row_begin, row_end, odata);
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
  if (out->rows() != n || out->cols() != d) *out = Matrix(n, d);
  const double* vdata = values.data().data();
  double* odata = out->mutable_data().data();
  auto row_range = [&csr, vdata, odata, c, d](size_t row_begin,
                                              size_t row_end) {
    simd::GinCombineRows(csr.row_offsets.data(), csr.col_indices.data(),
                         vdata, c, odata, row_begin, row_end, d);
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
  Matrix out;
  PoolRowsInto(values, agg, count, broadcast, &out);
  return out;
}

void PoolRowsInto(const Matrix& values, FusedAgg agg, size_t count,
                  bool broadcast, Matrix* out) {
  GELC_CHECK(out != nullptr && out != &values);
  const size_t d = values.cols();
  const size_t d_out = AggOutDim(agg, d);
  if (out->rows() != 1 || out->cols() != d_out) *out = Matrix(1, d_out);
  double* acc = out->mutable_data().data();
  const double* vdata = values.data().data();
  switch (agg) {
    case FusedAgg::kSum:
    case FusedAgg::kMean: {
      std::fill(acc, acc + d, 0.0);
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
}

}  // namespace gelc
