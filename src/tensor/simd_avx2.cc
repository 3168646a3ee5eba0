// AVX2 kernel bodies — the only translation unit in the tree built with
// -mavx2 -mfma (and the only one allowed to touch immintrin.h; the
// intrinsics-outside-tensor lint rule enforces it).
//
// Avx2Table() is a multiply-then-add vectorization. Every output cell
// sees one _mm256_mul_pd and one _mm256_add_pd per reduction step, in the
// same ascending order as the scalar loops — two roundings per step,
// exactly like `t += a * b` — so this tier is bit-identical to the scalar
// tier. Loads and stores of partial sums at block boundaries are exact
// and change nothing. -ffp-contract=off keeps the compiler from fusing
// the pair into an FMA.
//
// Max reductions use compare+blend, literally (acc < x) ? x : acc, the
// spelling of std::max(acc, x). _mm256_max_pd(a, b) is a > b ? a : b —
// it returns b on NaN and on equal zeros — so only the swapped call
// max_pd(x, acc) would agree with std::max. The blend states that
// contract literally, and no measured path aggregates with max at scale
// (the model plans all sum), so it stays.
// ReLU is the opposite case: x > 0 ? x : 0 is exactly
// _mm256_max_pd(x, 0), NaN and -0.0 included (both give +0.0), so the
// fused layer clamps in the store with it.
#include "tensor/simd_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "base/aligned.h"
#include "base/logging.h"

namespace gelc {
namespace simd {
namespace internal {
namespace {

// One reduction step: acc + x*y with two roundings, the scalar tier's
// `acc += x * y` bit for bit.
inline __m256d MulAdd(__m256d acc, __m256d x, __m256d y) {
  return _mm256_add_pd(acc, _mm256_mul_pd(x, y));
}

// std::max(acc, x) per lane: keep acc unless acc < x (ordered, quiet).
inline __m256d MaxBlend(__m256d acc, __m256d x) {
  return _mm256_blendv_pd(acc, x, _mm256_cmp_pd(acc, x, _CMP_LT_OQ));
}

// k-panel length for the dense product: a 256-step panel touches
// 256 x 8 doubles of B per register tile (16 KiB, L1-resident) while the
// C tile stays in registers. Panel boundaries load/store exact partial
// sums, so panel size never changes bits — only locality.
constexpr size_t kMatMulKPanel = 256;

// ---------------------------------------------------------------------------
// Dense MatMul: cache-blocked, register-tiled (4 rows x 8 columns).
// ---------------------------------------------------------------------------

void MatMulRowsVec(const double* a, const double* b, double* out,
                   size_t row_begin, size_t row_end, size_t inner,
                   size_t ocols) {
  GELC_DCHECK(IsVectorAligned(a));
  GELC_DCHECK(IsVectorAligned(b));
  GELC_DCHECK(IsVectorAligned(out));
  for (size_t k0 = 0; k0 < inner; k0 += kMatMulKPanel) {
    const size_t k1 = std::min(k0 + kMatMulKPanel, inner);
    size_t i = row_begin;
    // 4-row micro-kernel: 8 accumulator registers (4 rows x 8 columns),
    // two B loads and four broadcasts per k step.
    for (; i + 4 <= row_end; i += 4) {
      const double* a0 = a + (i + 0) * inner;
      const double* a1 = a + (i + 1) * inner;
      const double* a2 = a + (i + 2) * inner;
      const double* a3 = a + (i + 3) * inner;
      double* o0 = out + (i + 0) * ocols;
      double* o1 = out + (i + 1) * ocols;
      double* o2 = out + (i + 2) * ocols;
      double* o3 = out + (i + 3) * ocols;
      size_t j = 0;
      for (; j + 8 <= ocols; j += 8) {
        __m256d c00 = _mm256_loadu_pd(o0 + j);
        __m256d c01 = _mm256_loadu_pd(o0 + j + 4);
        __m256d c10 = _mm256_loadu_pd(o1 + j);
        __m256d c11 = _mm256_loadu_pd(o1 + j + 4);
        __m256d c20 = _mm256_loadu_pd(o2 + j);
        __m256d c21 = _mm256_loadu_pd(o2 + j + 4);
        __m256d c30 = _mm256_loadu_pd(o3 + j);
        __m256d c31 = _mm256_loadu_pd(o3 + j + 4);
        for (size_t k = k0; k < k1; ++k) {
          const double* brow = b + k * ocols + j;
          const __m256d b0 = _mm256_loadu_pd(brow);
          const __m256d b1 = _mm256_loadu_pd(brow + 4);
          __m256d av = _mm256_set1_pd(a0[k]);
          c00 = MulAdd(c00, av, b0);
          c01 = MulAdd(c01, av, b1);
          av = _mm256_set1_pd(a1[k]);
          c10 = MulAdd(c10, av, b0);
          c11 = MulAdd(c11, av, b1);
          av = _mm256_set1_pd(a2[k]);
          c20 = MulAdd(c20, av, b0);
          c21 = MulAdd(c21, av, b1);
          av = _mm256_set1_pd(a3[k]);
          c30 = MulAdd(c30, av, b0);
          c31 = MulAdd(c31, av, b1);
        }
        _mm256_storeu_pd(o0 + j, c00);
        _mm256_storeu_pd(o0 + j + 4, c01);
        _mm256_storeu_pd(o1 + j, c10);
        _mm256_storeu_pd(o1 + j + 4, c11);
        _mm256_storeu_pd(o2 + j, c20);
        _mm256_storeu_pd(o2 + j + 4, c21);
        _mm256_storeu_pd(o3 + j, c30);
        _mm256_storeu_pd(o3 + j + 4, c31);
      }
      for (; j + 4 <= ocols; j += 4) {
        __m256d c0 = _mm256_loadu_pd(o0 + j);
        __m256d c1 = _mm256_loadu_pd(o1 + j);
        __m256d c2 = _mm256_loadu_pd(o2 + j);
        __m256d c3 = _mm256_loadu_pd(o3 + j);
        for (size_t k = k0; k < k1; ++k) {
          const __m256d bv = _mm256_loadu_pd(b + k * ocols + j);
          c0 = MulAdd(c0, _mm256_set1_pd(a0[k]), bv);
          c1 = MulAdd(c1, _mm256_set1_pd(a1[k]), bv);
          c2 = MulAdd(c2, _mm256_set1_pd(a2[k]), bv);
          c3 = MulAdd(c3, _mm256_set1_pd(a3[k]), bv);
        }
        _mm256_storeu_pd(o0 + j, c0);
        _mm256_storeu_pd(o1 + j, c1);
        _mm256_storeu_pd(o2 + j, c2);
        _mm256_storeu_pd(o3 + j, c3);
      }
      for (; j < ocols; ++j) {
        // Scalar column tail: the same two-rounding ascending-k chain.
        double t0 = o0[j], t1 = o1[j], t2 = o2[j], t3 = o3[j];
        for (size_t k = k0; k < k1; ++k) {
          const double bkj = b[k * ocols + j];
          t0 += a0[k] * bkj;
          t1 += a1[k] * bkj;
          t2 += a2[k] * bkj;
          t3 += a3[k] * bkj;
        }
        o0[j] = t0;
        o1[j] = t1;
        o2[j] = t2;
        o3[j] = t3;
      }
    }
    // Row tail: one row at a time, same column blocking.
    for (; i < row_end; ++i) {
      const double* arow = a + i * inner;
      double* orow = out + i * ocols;
      size_t j = 0;
      for (; j + 8 <= ocols; j += 8) {
        __m256d c0 = _mm256_loadu_pd(orow + j);
        __m256d c1 = _mm256_loadu_pd(orow + j + 4);
        for (size_t k = k0; k < k1; ++k) {
          const double* brow = b + k * ocols + j;
          const __m256d av = _mm256_set1_pd(arow[k]);
          c0 = MulAdd(c0, av, _mm256_loadu_pd(brow));
          c1 = MulAdd(c1, av, _mm256_loadu_pd(brow + 4));
        }
        _mm256_storeu_pd(orow + j, c0);
        _mm256_storeu_pd(orow + j + 4, c1);
      }
      for (; j + 4 <= ocols; j += 4) {
        __m256d c0 = _mm256_loadu_pd(orow + j);
        for (size_t k = k0; k < k1; ++k) {
          c0 = MulAdd(c0, _mm256_set1_pd(arow[k]),
                      _mm256_loadu_pd(b + k * ocols + j));
        }
        _mm256_storeu_pd(orow + j, c0);
      }
      for (; j < ocols; ++j) {
        double t = orow[j];
        for (size_t k = k0; k < k1; ++k) t += arow[k] * b[k * ocols + j];
        orow[j] = t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SpMM: row-blocked CSR walk with column-index prefetch.
// ---------------------------------------------------------------------------

// How many nonzeros ahead to prefetch the B row for. The gather pattern
// of b rows is the only irregular access; eight entries (~one row_offsets
// cache line of indices) hides most of the miss latency at d = 16..64
// without thrashing L1 on dense rows.
constexpr size_t kSpMMPrefetchAhead = 8;

void SpMMRowsVec(const size_t* row_offsets, const uint32_t* col_indices,
                 const double* values, const double* b, double* out,
                 size_t row_begin, size_t row_end, size_t d) {
  GELC_DCHECK(IsVectorAligned(b));
  GELC_DCHECK(IsVectorAligned(out));
  for (size_t i = row_begin; i < row_end; ++i) {
    double* orow = out + i * d;
    const size_t begin = row_offsets[i];
    const size_t end = row_offsets[i + 1];
    GELC_DCHECK_LE(begin, end);
    for (size_t k = begin; k < end; ++k) {
      if (k + kSpMMPrefetchAhead < end) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         b + size_t{col_indices[k + kSpMMPrefetchAhead]} * d),
                     _MM_HINT_T0);
      }
      const double* brow = b + size_t{col_indices[k]} * d;
      size_t j = 0;
      if (values != nullptr) {
        const double w = values[k];
        const __m256d wv = _mm256_set1_pd(w);
        for (; j + 8 <= d; j += 8) {
          _mm256_storeu_pd(orow + j, MulAdd(_mm256_loadu_pd(orow + j), wv,
                                            _mm256_loadu_pd(brow + j)));
          _mm256_storeu_pd(orow + j + 4,
                           MulAdd(_mm256_loadu_pd(orow + j + 4), wv,
                                  _mm256_loadu_pd(brow + j + 4)));
        }
        for (; j + 4 <= d; j += 4) {
          _mm256_storeu_pd(orow + j, MulAdd(_mm256_loadu_pd(orow + j), wv,
                                            _mm256_loadu_pd(brow + j)));
        }
        for (; j < d; ++j) orow[j] += w * brow[j];
      } else {
        for (; j + 8 <= d; j += 8) {
          _mm256_storeu_pd(orow + j,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j),
                                         _mm256_loadu_pd(brow + j)));
          _mm256_storeu_pd(orow + j + 4,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j + 4),
                                         _mm256_loadu_pd(brow + j + 4)));
        }
        for (; j + 4 <= d; j += 4) {
          _mm256_storeu_pd(orow + j,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j),
                                         _mm256_loadu_pd(brow + j)));
        }
        for (; j < d; ++j) orow[j] += brow[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row primitives (fused / segment / plan-executor inner loops).
// ---------------------------------------------------------------------------

void AddRowVec(double* acc, const double* x, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(
        acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j),
                               _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) acc[j] += x[j];
}

void MaxRowVec(double* acc, const double* x, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, MaxBlend(_mm256_loadu_pd(acc + j),
                                       _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) acc[j] = acc[j] < x[j] ? x[j] : acc[j];
}

void DivRowVec(double* acc, double s, size_t d) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, _mm256_div_pd(_mm256_loadu_pd(acc + j), sv));
  }
  for (; j < d; ++j) acc[j] /= s;
}

// ---------------------------------------------------------------------------
// Fused layer and GIN combine: inline neighbor gather + register tiles.
// ---------------------------------------------------------------------------

// How many CSR entries ahead the gathers prefetch a bag-element row. The
// window runs across row boundaries up to the end of the shard, so at
// degree ~8 the next row's neighbors are already in flight.
constexpr size_t kGatherPrefetchAhead = 8;

// Doubles per gathered column chunk: four vectors held in registers
// while the CSR row streams past.
constexpr size_t kGatherChunk = 16;

// The helpers below run inside the per-neighbor and per-k loops; they
// must inline so their small vector arrays live in registers, and their
// constant-trip loops must unroll for the same reason.
#define GELC_SIMD_INLINE inline __attribute__((always_inline))

// Lane mask selecting the first `lanes` (1..4) doubles of a vector.
GELC_SIMD_INLINE __m256i LaneMask(size_t lanes) {
  static const int64_t kBits[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + 4 - lanes));
}

// NV vectors from p; the last one loads only the lanes in `mask` (the
// others read as 0.0 and are never stored), so no access runs past a row.
template <int NV>
GELC_SIMD_INLINE void LoadChunk(const double* p, __m256i mask, __m256d* x) {
#pragma GCC unroll 4
  for (int q = 0; q + 1 < NV; ++q) x[q] = _mm256_loadu_pd(p + 4 * q);
  x[NV - 1] = _mm256_maskload_pd(p + 4 * (NV - 1), mask);
}

template <int NV>
GELC_SIMD_INLINE void StoreChunk(double* p, __m256i mask, const __m256d* x) {
#pragma GCC unroll 4
  for (int q = 0; q + 1 < NV; ++q) _mm256_storeu_pd(p + 4 * q, x[q]);
  _mm256_maskstore_pd(p + 4 * (NV - 1), mask, x[NV - 1]);
}

// Folds the bag rows row_of(k), k in [begin, end), into acc[NV]: the
// scalar fold per lane — from zero (sum, mean) or -inf (max) in
// ascending CSR order, weighted entries as acc + w*x, mean divided by
// the count, empty max bags zeroed.
template <int NV, typename RowFn>
GELC_SIMD_INLINE void FoldBag(size_t begin, size_t end, FusedAgg agg,
                              const double* weights, __m256i mask,
                              RowFn row_of, __m256d* acc) {
  __m256d x[NV];
  if (agg == FusedAgg::kMax) {
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      acc[q] = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    }
    for (size_t k = begin; k < end; ++k) {
      LoadChunk<NV>(row_of(k), mask, x);
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[q] = MaxBlend(acc[q], x[q]);
    }
    if (end == begin) {
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[q] = _mm256_setzero_pd();
    }
    return;
  }
#pragma GCC unroll 4
  for (int q = 0; q < NV; ++q) acc[q] = _mm256_setzero_pd();
  if (weights != nullptr) {
    for (size_t k = begin; k < end; ++k) {
      LoadChunk<NV>(row_of(k), mask, x);
      const __m256d wv = _mm256_set1_pd(weights[k]);
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[q] = MulAdd(acc[q], wv, x[q]);
    }
  } else {
    for (size_t k = begin; k < end; ++k) {
      LoadChunk<NV>(row_of(k), mask, x);
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[q] = _mm256_add_pd(acc[q], x[q]);
    }
  }
  if (agg == FusedAgg::kMean && end != begin) {
    const __m256d count = _mm256_set1_pd(static_cast<double>(end - begin));
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) acc[q] = _mm256_div_pd(acc[q], count);
  }
}

// θ over CSR row v of `a`, columns [j0, j0 + 4*NV) (last vector masked),
// into acc. Neighbor rows are prefetched kGatherPrefetchAhead entries
// ahead, up to `prefetch_end` (the shard's last CSR entry); source and
// broadcast bags fold one fixed row.
template <int NV>
GELC_SIMD_INLINE void GatherChunk(const LayerArg& a, size_t v, size_t j0,
                                  __m256i mask, size_t prefetch_end,
                                  __m256d* acc) {
  const size_t begin = a.row_offsets[v];
  const size_t end = a.row_offsets[v + 1];
  const double* base = a.values + j0;
  const size_t d = a.d;
  if (a.broadcast || a.gather_source) {
    const double* fixed = base + (a.broadcast ? 0 : v) * d;
    FoldBag<NV>(begin, end, a.agg, a.csr_values, mask,
                [fixed](size_t) { return fixed; }, acc);
    return;
  }
  const uint32_t* cols = a.col_indices;
  FoldBag<NV>(
      begin, end, a.agg, a.csr_values, mask,
      [base, d, cols, prefetch_end](size_t k) {
        if (k + kGatherPrefetchAhead < prefetch_end) {
          const double* p =
              base + size_t{cols[k + kGatherPrefetchAhead]} * d;
          _mm_prefetch(reinterpret_cast<const char*>(p), _MM_HINT_T0);
          if (NV > 2) {
            _mm_prefetch(reinterpret_cast<const char*>(p + 8), _MM_HINT_T0);
          }
        }
        return base + size_t{cols[k]} * d;
      },
      acc);
}

// Calls chunk<NV>(j0, mask) over [0, d) in kGatherChunk-wide chunks.
template <typename ChunkFn>
GELC_SIMD_INLINE void ForEachChunk(size_t d, ChunkFn&& chunk) {
  for (size_t j0 = 0; j0 < d; j0 += kGatherChunk) {
    const size_t width = std::min(kGatherChunk, d - j0);
    const size_t nv = (width + 3) / 4;
    const __m256i mask = LaneMask(width - 4 * (nv - 1));
    switch (nv) {
      case 1:
        chunk.template operator()<1>(j0, mask);
        break;
      case 2:
        chunk.template operator()<2>(j0, mask);
        break;
      case 3:
        chunk.template operator()<3>(j0, mask);
        break;
      default:
        chunk.template operator()<4>(j0, mask);
        break;
    }
  }
}

// The aggregated input row of argument `a` at vertex v into dst.
GELC_SIMD_INLINE void GatherRow(const LayerArg& a, size_t v,
                                size_t prefetch_end, double* dst) {
  if (a.agg == FusedAgg::kCount) {
    // 0.0 + 1.0 + ... + 1.0 is exact: the count itself.
    dst[0] = static_cast<double>(a.row_offsets[v + 1] - a.row_offsets[v]);
    return;
  }
  ForEachChunk(a.d, [&]<int NV>(size_t j0, __m256i mask) {
    __m256d acc[NV];
    GatherChunk<NV>(a, v, j0, mask, prefetch_end, acc);
    StoreChunk<NV>(dst + j0, mask, acc);
  });
}

void AggregateRowsVec(const LayerArg& a, size_t row_begin, size_t row_end,
                      double* out) {
  if (row_begin >= row_end) return;
  const size_t width = a.agg == FusedAgg::kCount ? 1 : a.d;
  const size_t prefetch_end = a.row_offsets[row_end];
  for (size_t v = row_begin; v < row_end; ++v) {
    GatherRow(a, v, prefetch_end, out + v * width);
  }
}

// Finishes R x 1 vector cells of the layer output at column j of rows o:
// the arg's partial sum c adds to the stored total unless it is the
// first argument; after the last argument the bias adds and ReLU clamps
// (_mm256_max_pd(t, 0) is exactly t > 0 ? t : 0, NaN and -0.0 included).
template <bool kMasked>
GELC_SIMD_INLINE void FinishCell(__m256d c, double* o, const double* bias,
                                 __m256i mask, bool first, bool last,
                                 bool relu) {
  __m256d t = c;
  if (!first) {
    t = _mm256_add_pd(kMasked ? _mm256_maskload_pd(o, mask)
                              : _mm256_loadu_pd(o),
                      t);
  }
  if (last && bias != nullptr) {
    t = _mm256_add_pd(t, kMasked ? _mm256_maskload_pd(bias, mask)
                                 : _mm256_loadu_pd(bias));
  }
  if (last && relu) t = _mm256_max_pd(t, _mm256_setzero_pd());
  if (kMasked) {
    _mm256_maskstore_pd(o, mask, t);
  } else {
    _mm256_storeu_pd(o, t);
  }
}

// One argument's fold for R rows: cell (r, j) = Σ_k x[r][k] * w[k][j]
// from zero in ascending k, tiled R rows x 8 columns (then 4, then a
// masked tail), finished by FinishCell.
template <int R>
GELC_SIMD_INLINE void FoldRows(const double* const* x, const double* w,
                               size_t k_len, size_t out_dim, double* const* o,
                               const double* bias, bool first, bool last,
                               bool relu) {
  const __m256i all = LaneMask(4);
  size_t j = 0;
  for (; j + 8 <= out_dim; j += 8) {
    __m256d c[R][2];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      c[r][0] = _mm256_setzero_pd();
      c[r][1] = _mm256_setzero_pd();
    }
    for (size_t k = 0; k < k_len; ++k) {
      const double* wrow = w + k * out_dim + j;
      const __m256d b0 = _mm256_loadu_pd(wrow);
      const __m256d b1 = _mm256_loadu_pd(wrow + 4);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256d av = _mm256_set1_pd(x[r][k]);
        c[r][0] = MulAdd(c[r][0], av, b0);
        c[r][1] = MulAdd(c[r][1], av, b1);
      }
    }
    const double* bj = bias == nullptr ? nullptr : bias + j;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      FinishCell<false>(c[r][0], o[r] + j, bj, all, first, last, relu);
      FinishCell<false>(c[r][1], o[r] + j + 4,
                        bj == nullptr ? nullptr : bj + 4, all, first, last,
                        relu);
    }
  }
  for (; j < out_dim; j += 4) {
    const size_t lanes = std::min<size_t>(4, out_dim - j);
    const __m256i mask = LaneMask(lanes);
    __m256d c[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) c[r] = _mm256_setzero_pd();
    for (size_t k = 0; k < k_len; ++k) {
      const double* wrow = w + k * out_dim + j;
      const __m256d b = lanes == 4 ? _mm256_loadu_pd(wrow)
                                   : _mm256_maskload_pd(wrow, mask);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        c[r] = MulAdd(c[r], _mm256_set1_pd(x[r][k]), b);
      }
    }
    const double* bj = bias == nullptr ? nullptr : bias + j;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      FinishCell<true>(c[r], o[r] + j, bj, mask, first, last, relu);
    }
  }
}

// R consecutive rows starting at v, every argument in order.
template <int R>
GELC_SIMD_INLINE void FusedLayerBlock(const FusedLayerSpec& s, size_t v,
                                      size_t row_end, double* scratch) {
  double* o[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) o[r] = s.out + (v + r) * s.out_dim;
  for (size_t i = 0; i < s.num_args; ++i) {
    const LayerArg& a = s.args[i];
    const double* x[R];
    if (a.row_offsets != nullptr) {
      const size_t prefetch_end = a.row_offsets[row_end];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        double* dst = scratch + r * s.agg_dim;
        GatherRow(a, v + r, prefetch_end, dst);
        x[r] = dst;
      }
    } else {
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        x[r] = a.values + (a.broadcast ? 0 : v + r) * a.d;
      }
    }
    FoldRows<R>(x, a.w, a.w_rows, s.out_dim, o, s.bias, i == 0,
                i + 1 == s.num_args, s.relu);
  }
}

void FusedLayerRowsVec(const FusedLayerSpec& s, size_t row_begin,
                       size_t row_end, double* scratch) {
  size_t v = row_begin;
  for (; v + kFusedLayerRowBlock <= row_end; v += kFusedLayerRowBlock) {
    FusedLayerBlock<kFusedLayerRowBlock>(s, v, row_end, scratch);
  }
  for (; v < row_end; ++v) FusedLayerBlock<1>(s, v, row_end, scratch);
}

void GinCombineRowsVec(const size_t* row_offsets, const uint32_t* col_indices,
                       const double* values, double c, double* out,
                       size_t row_begin, size_t row_end, size_t d) {
  GELC_DCHECK(IsVectorAligned(values));
  GELC_DCHECK(IsVectorAligned(out));
  if (row_begin >= row_end) return;
  LayerArg a;
  a.values = values;
  a.d = d;
  a.row_offsets = row_offsets;
  a.col_indices = col_indices;
  const size_t prefetch_end = row_offsets[row_end];
  const __m256d cv = _mm256_set1_pd(c);
  for (size_t v = row_begin; v < row_end; ++v) {
    ForEachChunk(d, [&]<int NV>(size_t j0, __m256i mask) {
      __m256d acc[NV];
      __m256d self[NV];
      GatherChunk<NV>(a, v, j0, mask, prefetch_end, acc);
      LoadChunk<NV>(values + v * d + j0, mask, self);
      // self * c + agg: one multiply, then one add.
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) {
        acc[q] = MulAdd(acc[q], cv, self[q]);
      }
      StoreChunk<NV>(out + v * d + j0, mask, acc);
    });
  }
}

void ScaleRowCopyVec(double* out, const double* x, double s, size_t d) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(sv, _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) out[j] = s * x[j];
}

void AddRowsToVec(double* out, const double* a, const double* b, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(a + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < d; ++j) out[j] = a[j] + b[j];
}

void MulRowsToVec(double* out, const double* a, const double* b, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < d; ++j) out[j] = a[j] * b[j];
}

constexpr KernelTable kAvx2Table = {
    MatMulRowsVec,     SpMMRowsVec,       AddRowVec,
    MaxRowVec,         DivRowVec,         GinCombineRowsVec,
    AggregateRowsVec,  FusedLayerRowsVec, ScaleRowCopyVec,
    AddRowsToVec,      MulRowsToVec,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace internal
}  // namespace simd
}  // namespace gelc

#else  // !(defined(__AVX2__) && defined(__FMA__))

namespace gelc {
namespace simd {
namespace internal {

// Built without AVX2/FMA support (non-x86 target or missing -mavx2
// -mfma): no vector table; the dispatcher pins the scalar tier.
const KernelTable* Avx2Table() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gelc

#endif
