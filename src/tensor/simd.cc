// SIMD tier resolution and the scalar reference kernels.
//
// This TU is compiled for the baseline ISA: the scalar kernels here are
// the bit-exactness oracle every vector tier is measured against, and
// they are byte-for-byte the loops that lived in matrix.cc / sparse.cc /
// fused.cc / segment.cc before the dispatch layer existed — moving them
// must not change a single rounding step.
#include "tensor/simd.h"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "base/aligned.h"
#include "base/logging.h"
#include "obs/metrics.h"
#include "tensor/simd_internal.h"

namespace gelc {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier.
// ---------------------------------------------------------------------------

// The i-k-j product with the k-unroll-by-4 from Matrix::MatMulImpl: each
// output cell is read and written once per four k steps, but its
// additions still happen one at a time in ascending-k order (four
// sequential rounding steps through a register), so the bits match the
// plain i-k-j loop exactly. No skip-zero branch: sparse operands go
// through SpMM.
void MatMulRowsScalar(const double* a, const double* b, double* out,
                      size_t row_begin, size_t row_end, size_t inner,
                      size_t ocols) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * inner;
    double* orow = out + i * ocols;
    size_t k = 0;
    for (; k + 4 <= inner; k += 4) {
      double a0 = arow[k];
      double a1 = arow[k + 1];
      double a2 = arow[k + 2];
      double a3 = arow[k + 3];
      const double* b0 = b + k * ocols;
      const double* b1 = b0 + ocols;
      const double* b2 = b1 + ocols;
      const double* b3 = b2 + ocols;
      for (size_t j = 0; j < ocols; ++j) {
        double t = orow[j];
        t += a0 * b0[j];
        t += a1 * b1[j];
        t += a2 * b2[j];
        t += a3 * b3[j];
        orow[j] = t;
      }
    }
    for (; k < inner; ++k) {
      double av = arow[k];
      const double* brow = b + k * ocols;
      for (size_t j = 0; j < ocols; ++j) orow[j] += av * brow[j];
    }
  }
}

// The CSR row walk from SpMMInto: nonzeros in ascending column order,
// one multiply-add (or add, unweighted) per (nonzero, column) pair.
void SpMMRowsScalar(const size_t* row_offsets, const uint32_t* col_indices,
                    const double* values, const double* b, double* out,
                    size_t row_begin, size_t row_end, size_t d) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* orow = out + i * d;
    GELC_DCHECK_LE(row_offsets[i], row_offsets[i + 1]);
    for (size_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
      const double* brow = b + size_t{col_indices[k]} * d;
      if (values != nullptr) {
        const double w = values[k];
        for (size_t j = 0; j < d; ++j) orow[j] += w * brow[j];
      } else {
        for (size_t j = 0; j < d; ++j) orow[j] += brow[j];
      }
    }
  }
}

void AddRowScalar(double* acc, const double* x, size_t d) {
  for (size_t j = 0; j < d; ++j) acc[j] += x[j];
}

void AddScaledRowScalar(double* acc, const double* x, double w, size_t d) {
  for (size_t j = 0; j < d; ++j) acc[j] += w * x[j];
}

void MaxRowScalar(double* acc, const double* x, size_t d) {
  // (acc < x) ? x : acc — exactly std::max(acc, x).
  for (size_t j = 0; j < d; ++j) acc[j] = acc[j] < x[j] ? x[j] : acc[j];
}

void DivRowScalar(double* acc, double s, size_t d) {
  for (size_t j = 0; j < d; ++j) acc[j] /= s;
}

// The GIN combine, one cell at a time: the neighbor sum folds from zero
// in ascending CSR order, then combines with the scaled self value —
// (c*x) + (n_1 + n_2 + ...), the reference association.
void GinCombineRowsScalar(const size_t* row_offsets,
                          const uint32_t* col_indices, const double* values,
                          double c, double* out, size_t row_begin,
                          size_t row_end, size_t d) {
  for (size_t v = row_begin; v < row_end; ++v) {
    const double* self = values + v * d;
    double* orow = out + v * d;
    for (size_t j = 0; j < d; ++j) {
      double agg = 0.0;
      for (size_t k = row_offsets[v]; k < row_offsets[v + 1]; ++k) {
        agg += values[size_t{col_indices[k]} * d + j];
      }
      orow[j] = self[j] * c + agg;
    }
  }
}

// θ over CSR row v of an aggregated argument into acc (a.w_rows values):
// the fold theta's init/accumulate/finalize closures perform, over the
// neighbors in ascending adjacency order.
void AggregateArgRowScalar(const LayerArg& a, size_t v, double* acc) {
  const size_t d = a.d;
  const size_t begin = a.row_offsets[v];
  const size_t end = a.row_offsets[v + 1];
  auto bag_row = [&a, v, d](size_t k) {
    const size_t u = a.broadcast        ? 0
                     : a.gather_source ? v
                                       : size_t{a.col_indices[k]};
    return a.values + u * d;
  };
  switch (a.agg) {
    case FusedAgg::kSum:
    case FusedAgg::kMean: {
      for (size_t j = 0; j < d; ++j) acc[j] = 0.0;
      for (size_t k = begin; k < end; ++k) {
        if (a.csr_values != nullptr) {
          AddScaledRowScalar(acc, bag_row(k), a.csr_values[k], d);
        } else {
          AddRowScalar(acc, bag_row(k), d);
        }
      }
      // Divide by the count (not multiply by the reciprocal): theta's
      // mean finalization divides, and the bits differ.
      if (a.agg == FusedAgg::kMean && end != begin) {
        DivRowScalar(acc, static_cast<double>(end - begin), d);
      }
      return;
    }
    case FusedAgg::kMax: {
      for (size_t j = 0; j < d; ++j) {
        acc[j] = -std::numeric_limits<double>::infinity();
      }
      for (size_t k = begin; k < end; ++k) MaxRowScalar(acc, bag_row(k), d);
      // Empty bags finalize to zeros, exactly like theta::Max.
      if (end == begin) {
        for (size_t j = 0; j < d; ++j) acc[j] = 0.0;
      }
      return;
    }
    case FusedAgg::kCount: {
      acc[0] = 0.0;
      for (size_t k = begin; k < end; ++k) acc[0] += 1.0;
      return;
    }
  }
}

void AggregateRowsScalar(const LayerArg& a, size_t row_begin,
                         size_t row_end, double* out) {
  const size_t width = a.agg == FusedAgg::kCount ? 1 : a.d;
  for (size_t v = row_begin; v < row_end; ++v) {
    AggregateArgRowScalar(a, v, out + v * width);
  }
}

// The fused layer's reference row loop. Argument 0 folds straight into
// the zeroed output row; later arguments fold into `partial` and add in
// one left-to-right step, matching `p_0 + p_1 + ...` and omega's linear
// closure; each fold runs over ascending components — MatMul's i-k-j
// chain per cell. The bias adds last, then ReLU clamps.
void FusedLayerRowsScalar(const FusedLayerSpec& s, size_t row_begin,
                          size_t row_end, double* scratch) {
  const size_t out_dim = s.out_dim;
  double* agg_row = scratch;
  double* partial = scratch + s.agg_dim;
  for (size_t v = row_begin; v < row_end; ++v) {
    double* orow = s.out + v * out_dim;
    for (size_t j = 0; j < out_dim; ++j) orow[j] = 0.0;
    for (size_t i = 0; i < s.num_args; ++i) {
      const LayerArg& a = s.args[i];
      double* acc = i == 0 ? orow : partial;
      if (i != 0) {
        for (size_t j = 0; j < out_dim; ++j) acc[j] = 0.0;
      }
      const double* x;
      if (a.row_offsets != nullptr) {
        AggregateArgRowScalar(a, v, agg_row);
        x = agg_row;
      } else {
        x = a.values + (a.broadcast ? 0 : v) * a.d;
      }
      for (size_t c = 0; c < a.w_rows; ++c) {
        const double xc = x[c];
        const double* wrow = a.w + c * out_dim;
        for (size_t j = 0; j < out_dim; ++j) acc[j] += xc * wrow[j];
      }
      if (i != 0) AddRowScalar(orow, partial, out_dim);
    }
    if (s.bias != nullptr) AddRowScalar(orow, s.bias, out_dim);
    if (s.relu) {
      for (size_t j = 0; j < out_dim; ++j) {
        orow[j] = orow[j] > 0.0 ? orow[j] : 0.0;
      }
    }
  }
}

void ScaleRowCopyScalar(double* out, const double* x, double s, size_t d) {
  for (size_t j = 0; j < d; ++j) out[j] = s * x[j];
}

void AddRowsToScalar(double* out, const double* a, const double* b,
                     size_t d) {
  for (size_t j = 0; j < d; ++j) out[j] = a[j] + b[j];
}

void MulRowsToScalar(double* out, const double* a, const double* b,
                     size_t d) {
  for (size_t j = 0; j < d; ++j) out[j] = a[j] * b[j];
}

constexpr internal::KernelTable kScalarTable = {
    MatMulRowsScalar,     SpMMRowsScalar,       AddRowScalar,
    MaxRowScalar,         DivRowScalar,         GinCombineRowsScalar,
    AggregateRowsScalar,  FusedLayerRowsScalar, ScaleRowCopyScalar,
    AddRowsToScalar,      MulRowsToScalar,
};

// ---------------------------------------------------------------------------
// Tier resolution and installation.
// ---------------------------------------------------------------------------

// The installed tier. Written only by Install() (static init, SetTier,
// ResetTier — all single-threaded by contract); read on every kernel
// dispatch decision.
Tier g_tier = Tier::kScalar;

// Binds every dispatch pointer to `tier`, degrading to scalar when the
// vector table is unavailable. Returns the tier actually installed.
Tier Install(Tier tier) {
  if (tier == Tier::kAvx2 &&
      (!CpuHasAvx2Fma() || internal::Avx2Table() == nullptr)) {
    tier = Tier::kScalar;
  }
  const internal::KernelTable* t =
      tier == Tier::kAvx2 ? internal::Avx2Table() : &kScalarTable;
  MatMulRows = t->matmul_rows;
  SpMMRows = t->spmm_rows;
  AddRow = t->add_row;
  MaxRow = t->max_row;
  DivRow = t->div_row;
  GinCombineRows = t->gin_combine_rows;
  AggregateRows = t->aggregate_rows;
  FusedLayerRows = t->fused_layer_rows;
  ScaleRowCopy = t->scale_row_copy;
  AddRowsTo = t->add_rows_to;
  MulRowsTo = t->mul_rows_to;
  g_tier = tier;
  return tier;
}

// Resolve GELC_SIMD + cpuid once before main(). Any kernel call that
// races this (another TU's static initializer) sees the scalar defaults
// below, which are always correct.
const bool g_simd_resolved = [] {
  Install(TierFromEnvValue(std::getenv("GELC_SIMD"), CpuHasAvx2Fma()));
  return true;
}();

}  // namespace

// Constant-initialized to the scalar tier so calls during static init
// are well-defined even before g_simd_resolved runs.
void (*MatMulRows)(const double*, const double*, double*, size_t, size_t,
                   size_t, size_t) = MatMulRowsScalar;
void (*SpMMRows)(const size_t*, const uint32_t*, const double*,
                 const double*, double*, size_t, size_t,
                 size_t) = SpMMRowsScalar;
void (*AddRow)(double*, const double*, size_t) = AddRowScalar;
void (*MaxRow)(double*, const double*, size_t) = MaxRowScalar;
void (*DivRow)(double*, double, size_t) = DivRowScalar;
void (*GinCombineRows)(const size_t*, const uint32_t*, const double*, double,
                       double*, size_t, size_t, size_t) = GinCombineRowsScalar;
void (*AggregateRows)(const LayerArg&, size_t, size_t,
                      double*) = AggregateRowsScalar;
void (*FusedLayerRows)(const FusedLayerSpec&, size_t, size_t,
                       double*) = FusedLayerRowsScalar;
void (*ScaleRowCopy)(double*, const double*, double,
                     size_t) = ScaleRowCopyScalar;
void (*AddRowsTo)(double*, const double*, const double*,
                  size_t) = AddRowsToScalar;
void (*MulRowsTo)(double*, const double*, const double*,
                  size_t) = MulRowsToScalar;

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") &&
                          __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

Tier ActiveTier() { return g_tier; }

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier TierFromEnvValue(const char* value, bool hw_avx2_fma) {
  if (value != nullptr &&
      (std::strcmp(value, "0") == 0 || std::strcmp(value, "scalar") == 0)) {
    return Tier::kScalar;
  }
  return hw_avx2_fma ? Tier::kAvx2 : Tier::kScalar;
}

Tier SetTier(Tier tier) { return Install(tier); }

void ResetTier() {
  Install(TierFromEnvValue(std::getenv("GELC_SIMD"), CpuHasAvx2Fma()));
}

void CountDispatch() {
  static obs::Counter* scalar = obs::GetCounter("simd.scalar_dispatches");
  static obs::Counter* avx2 = obs::GetCounter("simd.avx2_dispatches");
  (g_tier == Tier::kAvx2 ? avx2 : scalar)->Increment();
}

}  // namespace simd
}  // namespace gelc
