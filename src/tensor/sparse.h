// Sparse matrices in compressed-sparse-row form and the SpMM kernel.
//
// The paper's MPNN(Ω,Θ) semantics only ever aggregates over each vertex's
// neighbor list, so the faithful implementation of A·F is a sparse product
// over the m arcs, not a dense n x n one: SpMM costs O((n+m)·d) where the
// dense path costs O(n²·d). CsrMatrix is the storage format; SpMM is the
// kernel. Graph-side construction (adjacency, transpose, GCN-normalized)
// lives in graph/csr.h; this header is graph-agnostic so autodiff can
// depend on it without a dependency cycle.
#ifndef GELC_TENSOR_SPARSE_H_
#define GELC_TENSOR_SPARSE_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gelc {

/// A rows x cols sparse matrix in CSR form. `row_offsets` has rows+1
/// entries; row i's nonzeros are col_indices[row_offsets[i] ..
/// row_offsets[i+1]) with matching `values`. An empty `values` vector
/// means every stored entry is 1.0 (the unweighted-adjacency case), which
/// skips a multiply per nonzero in the kernel. Column indices within a
/// row must be strictly ascending: SpMM accumulates in index order, so a
/// sorted CSR reproduces the dense k-ascending loop bit-for-bit.
struct CsrMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<size_t> row_offsets;    // rows + 1 entries
  std::vector<uint32_t> col_indices;  // nnz entries, ascending per row
  std::vector<double> values;         // nnz entries, or empty (all 1.0)

  size_t nnz() const { return col_indices.size(); }
  bool weighted() const { return !values.empty(); }

  /// Builds from a dense matrix, keeping entries with x != 0.
  static CsrMatrix FromDense(const Matrix& m);
  /// Densifies (tests and diagnostics only; defeats the point otherwise).
  Matrix ToDense() const;
  /// The transpose, also in sorted CSR form.
  CsrMatrix Transposed() const;
};

/// Sparse-times-dense product a * b into a dense (a.rows x b.cols) matrix.
/// Row-partitioned across the global thread pool (base/parallel.h): each
/// output row is owned by exactly one shard and accumulated in column
/// order, so the result is bit-identical for any thread count and
/// bit-identical to the dense Matrix::MatMul of ToDense() against b.
Matrix SpMM(const CsrMatrix& a, const Matrix& b);

/// SpMM computed into *out, reusing out's storage when the shape already
/// matches (no allocation inside training loops). `out` must not alias b.
void SpMMInto(const CsrMatrix& a, const Matrix& b, Matrix* out);

}  // namespace gelc

#endif  // GELC_TENSOR_SPARSE_H_
