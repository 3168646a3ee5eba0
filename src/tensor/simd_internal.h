// Internal glue between the SIMD dispatch layer (simd.cc) and the AVX2
// translation unit (simd_avx2.cc). Not for use outside
// src/tensor/simd*.
#ifndef GELC_TENSOR_SIMD_INTERNAL_H_
#define GELC_TENSOR_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "tensor/simd.h"

namespace gelc {
namespace simd {
namespace internal {

/// One implementation of every dispatched kernel (see simd.h for the
/// per-kernel contracts).
struct KernelTable {
  void (*matmul_rows)(const double* a, const double* b, double* out,
                      size_t row_begin, size_t row_end, size_t inner,
                      size_t ocols);
  void (*spmm_rows)(const size_t* row_offsets, const uint32_t* col_indices,
                    const double* values, const double* b, double* out,
                    size_t row_begin, size_t row_end, size_t d);
  void (*add_row)(double* acc, const double* x, size_t d);
  void (*max_row)(double* acc, const double* x, size_t d);
  void (*div_row)(double* acc, double s, size_t d);
  void (*gin_combine_rows)(const size_t* row_offsets,
                           const uint32_t* col_indices, const double* values,
                           double c, double* out, size_t row_begin,
                           size_t row_end, size_t d);
  void (*aggregate_rows)(const LayerArg& a, size_t row_begin,
                         size_t row_end, double* out);
  void (*fused_layer_rows)(const FusedLayerSpec& spec, size_t row_begin,
                           size_t row_end, double* scratch);
  void (*scale_row_copy)(double* out, const double* x, double s, size_t d);
  void (*add_rows_to)(double* out, const double* a, const double* b,
                      size_t d);
  void (*mul_rows_to)(double* out, const double* a, const double* b,
                      size_t d);
};

/// The AVX2 table (multiply-then-add, bit-identical to scalar), defined
/// in simd_avx2.cc. Null when that TU was compiled without AVX2/FMA
/// support (non-x86 target or a compiler without -mavx2): the dispatcher
/// then pins the scalar tier.
const KernelTable* Avx2Table();

}  // namespace internal
}  // namespace simd
}  // namespace gelc

#endif  // GELC_TENSOR_SIMD_INTERNAL_H_
