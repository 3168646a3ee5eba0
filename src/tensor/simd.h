// Runtime-dispatched SIMD kernel tier for the dense/sparse substrate.
//
// Every hot inner loop under src/tensor funnels through the entry points
// declared here. Each entry point is a mutable function pointer bound
// once per process to one of two implementations (DESIGN.md §11):
//
//   kScalar  the reference loops, compiled without vector flags. Always
//            available; the bit-exactness oracle.
//   kAvx2    AVX2 vectorization of the same loops, arranged so every
//            output cell sees the exact same sequence of IEEE operations
//            as the scalar tier (multiply-then-add, ascending reduction
//            order, std::max blend semantics). Bit-identical to kScalar
//            at any thread count — this is the default on AVX2+FMA
//            hardware.
//
// Selection: GELC_SIMD=0|scalar forces kScalar; any other value, or none,
// picks kAvx2. kAvx2 silently falls back to kScalar when cpuid lacks AVX2
// or FMA, so a binary built here runs anywhere. The AVX2 bodies live in
// simd_avx2.cc, the only TU built with -mavx2 -mfma (the
// intrinsics-outside-tensor lint rule keeps it that way); everything
// else, including this dispatch layer and the scalar tier, compiles for
// the baseline ISA.
#ifndef GELC_TENSOR_SIMD_H_
#define GELC_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace gelc {

/// Bag aggregation kinds with fused kernels (tensor/fused.h); semantics,
/// including empty bags -> zeros and mean's divide-by-count, mirror
/// core/theta.h bit for bit.
enum class FusedAgg { kSum, kMean, kMax, kCount };

namespace simd {

enum class Tier { kScalar, kAvx2 };

/// True when cpuid reports both AVX2 and FMA.
bool CpuHasAvx2Fma();

/// The tier the kernels below currently dispatch to.
Tier ActiveTier();

/// "scalar" / "avx2".
const char* TierName(Tier tier);

/// Parses a GELC_SIMD value against hardware capability: "0"/"scalar"
/// force kScalar, anything else (including nullptr, the unset case)
/// picks kAvx2, which degrades to kScalar when `hw_avx2_fma` is false.
/// Exposed for tests.
Tier TierFromEnvValue(const char* value, bool hw_avx2_fma);

/// Overrides the active tier (benchmarks sweep scalar/avx2 with this;
/// tests compare tiers in-process). kAvx2 degrades to kScalar on
/// non-AVX2 hardware; returns the tier actually installed.
/// Not thread-safe against concurrently executing kernels — call it
/// only between kernel invocations, like SetParallelThreadCount.
Tier SetTier(Tier tier);

/// Restores the GELC_SIMD / cpuid default resolution.
void ResetTier();

/// Increments the per-tier dispatch counter (simd.scalar_dispatches /
/// simd.avx2_dispatches). The kernel wrappers in
/// matrix.cc, sparse.cc, fused.cc and segment.cc call this once per
/// kernel invocation, so the obs snapshot records how many kernel
/// dispatches each tier served.
void CountDispatch();

// ---------------------------------------------------------------------------
// Dispatched kernels. All pointers are bound at static initialization to
// the scalar tier and rebound by the resolver (or SetTier) before main();
// a call that races static init simply runs the scalar reference.
//
// Contract shared by every kernel: each output cell accumulates in the
// same ascending order as the reference loops in matrix.cc / sparse.cc /
// fused.cc / segment.cc, so kScalar and kAvx2 produce identical bits and
// rows remain disjoint output slots under ParallelFor.
// ---------------------------------------------------------------------------

/// Rows [row_begin, row_end) of out += a * b, where a is (rows x inner),
/// b is (inner x ocols), both row-major, and the out rows are already
/// zeroed. `a`, `b`, `out` are full-matrix base pointers (64-byte
/// aligned, see base/aligned.h). The AVX2 tier k-panel-blocks the
/// reduction and register-tiles 4x8 output blocks; panel boundaries
/// load/store the exact partial sums, so the per-cell addition chain is
/// unchanged.
extern void (*MatMulRows)(const double* a, const double* b, double* out,
                          size_t row_begin, size_t row_end, size_t inner,
                          size_t ocols);

/// Rows [row_begin, row_end) of the CSR product out += csr * b with
/// `d = b.cols()`. `values` is null for an unweighted (all-1.0) matrix.
/// The out rows are already zeroed; `b` and `out` are full-matrix base
/// pointers. The AVX2 tier prefetches the b-row of a later column index
/// while accumulating the current one.
extern void (*SpMMRows)(const size_t* row_offsets,
                        const uint32_t* col_indices, const double* values,
                        const double* b, double* out, size_t row_begin,
                        size_t row_end, size_t d);

/// acc[j] += x[j] for j in [0, d).
extern void (*AddRow)(double* acc, const double* x, size_t d);

/// acc[j] = std::max(acc[j], x[j]) for j in [0, d) — exact std::max
/// semantics (keep acc on ties, NaN in x, and the signed-zero cases), in
/// every tier.
extern void (*MaxRow)(double* acc, const double* x, size_t d);

/// acc[j] /= s for j in [0, d): theta's mean finalization divides by the
/// count, and IEEE division is not a multiply by the reciprocal.
extern void (*DivRow)(double* acc, double s, size_t d);

/// Rows [row_begin, row_end) of the fused GIN combine
/// out[v] = values[v] * c + Σ_{u in csr row v} values[u], with
/// d = values.cols(). The neighbor sum folds from zero in ascending CSR
/// order before the one combine step, so each cell's association is
/// (c*x) + (n_1 + n_2 + ...). `values` and `out` are full-matrix base
/// pointers; CSR weights, if any, are ignored. The AVX2 tier gathers
/// the neighbor rows inline and prefetches a few CSR entries ahead.
extern void (*GinCombineRows)(const size_t* row_offsets,
                              const uint32_t* col_indices,
                              const double* values, double c, double* out,
                              size_t row_begin, size_t row_end, size_t d);

/// One argument of a fused layer (tensor/fused.h's FusedLayerArg as raw
/// pointers): rows of `values` feed the weight slice `w`, directly or
/// after aggregation over the argument's CSR row.
struct LayerArg {
  /// Value table, row-major with `d` columns (one row when `broadcast`).
  const double* values = nullptr;
  size_t d = 0;
  /// w_rows x out_dim weight slice, row-major (w_rows = 1 for kCount,
  /// d otherwise).
  const double* w = nullptr;
  size_t w_rows = 0;
  /// Non-null: aggregate over this CSR row before the weight.
  const size_t* row_offsets = nullptr;
  const uint32_t* col_indices = nullptr;
  /// CSR weights, or null for an unweighted (all-1.0) operator.
  const double* csr_values = nullptr;
  FusedAgg agg = FusedAgg::kSum;
  /// Read row 0 for every vertex (or every bag element).
  bool broadcast = false;
  /// Aggregated arguments only: each bag element is row v itself.
  bool gather_source = false;
};

/// A whole fused layer: out = act(Σ_i arg_i W_i + bias) with act the
/// identity or ReLU (other activations are the caller's pass).
struct FusedLayerSpec {
  const LayerArg* args = nullptr;
  size_t num_args = 0;
  /// Null or out_dim values.
  const double* bias = nullptr;
  bool relu = false;
  size_t out_dim = 0;
  /// Widest aggregated argument's w_rows (0 when none is aggregated).
  size_t agg_dim = 0;
  /// n x out_dim output base pointer.
  double* out = nullptr;
};

/// Rows [row_begin, row_end) of θ over an aggregated argument's CSR rows
/// (`a.row_offsets` non-null; `a.w` unused): row v of `out` (1 column
/// for kCount, a.d otherwise) is the input row FusedLayerRows would feed
/// a's weight — the fold described there. `out` is a full-matrix base
/// pointer; every cell of the range is written.
extern void (*AggregateRows)(const LayerArg& a, size_t row_begin,
                             size_t row_end, double* out);

/// Rows per register tile of the vector FusedLayerRows bodies.
inline constexpr size_t kFusedLayerRowBlock = 4;

/// Doubles of scratch one FusedLayerRows call needs.
inline size_t FusedLayerScratchSize(const FusedLayerSpec& spec) {
  return kFusedLayerRowBlock * spec.agg_dim + spec.out_dim;
}

/// Rows [row_begin, row_end) of a fused layer, every output cell written.
/// Per cell (v, j): argument 0 folds Σ_c x_0[c] * w_0[c][j] from zero in
/// ascending c; each later argument folds its own partial sum from zero
/// and adds it in one step; the bias adds last; ReLU is x > 0 ? x : 0.
/// An aggregated argument's input row is θ over its CSR row in ascending
/// order (sum / weighted sum / mean divides by the count / max from
/// -inf, empty bags give zeros / count). `scratch` holds
/// FusedLayerScratchSize(spec) doubles. The AVX2 tier tiles
/// kFusedLayerRowBlock rows x 8 columns in registers per pass over W,
/// gathers neighbor rows inline with prefetch, and clamps in the store.
extern void (*FusedLayerRows)(const FusedLayerSpec& spec, size_t row_begin,
                              size_t row_end, double* scratch);

/// out[j] = s * x[j] for j in [0, d) (the plan executor's kScale).
extern void (*ScaleRowCopy)(double* out, const double* x, double s,
                            size_t d);

/// out[j] = a[j] + b[j] / out[j] = a[j] * b[j] (plan kAdd / kMul rows).
extern void (*AddRowsTo)(double* out, const double* a, const double* b,
                         size_t d);
extern void (*MulRowsTo)(double* out, const double* a, const double* b,
                         size_t d);

}  // namespace simd
}  // namespace gelc

#endif  // GELC_TENSOR_SIMD_H_
