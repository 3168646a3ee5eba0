// Dense row-major matrices and vectors over double.
//
// This is the numeric substrate of the GNN library (slide 13 of the paper:
// feature matrices F^(t) in R^{n x d}, weight matrices W in R^{d x d}).
// It is intentionally small: exactly the operations GNN inference and
// training need, implemented carefully rather than generally.
#ifndef GELC_TENSOR_MATRIX_H_
#define GELC_TENSOR_MATRIX_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "base/aligned.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/status.h"

namespace gelc {

/// A dense row-major matrix of doubles.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// A rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  /// Moves leave `other` an empty 0x0 matrix, so a buffer reused by its
  /// shape (MatMulInto, SpMMInto, the fused kernels) never sees a stale
  /// shape over no storage.
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::move(other.data_);
    }
    return *this;
  }

  static Matrix Zero(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Identity(size_t n);
  /// Entries i.i.d. uniform in [lo, hi).
  static Matrix RandomUniform(size_t rows, size_t cols, double lo, double hi,
                              Rng* rng);
  /// Entries i.i.d. N(0, stddev^2).
  static Matrix RandomGaussian(size_t rows, size_t cols, double stddev,
                               Rng* rng);
  /// A 1 x n row vector from values.
  static Matrix RowVector(const std::vector<double>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    GELC_DCHECK_LT(r, rows_);
    GELC_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    GELC_DCHECK_LT(r, rows_);
    GELC_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  const AlignedVector& data() const { return data_; }
  AlignedVector& mutable_data() { return data_; }

  /// Returns row r as a 1 x cols matrix.
  Matrix Row(size_t r) const;
  /// Copies a 1 x cols matrix into row r.
  void SetRow(size_t r, const Matrix& row);

  /// Matrix product; dimension mismatch is a checked programmer error.
  /// Large products are row-partitioned across the global thread pool
  /// (see base/parallel.h); results are bit-identical to the serial path.
  Matrix MatMul(const Matrix& other) const;
  /// Matrix product computed into *out, reusing out's storage when the
  /// shape already matches (no allocation on repeated calls, e.g. inside
  /// training loops). `out` must not alias this or `other`.
  void MatMulInto(const Matrix& other, Matrix* out) const;
  /// Transpose.
  Matrix Transposed() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  /// Elementwise (Hadamard) product.
  Matrix Hadamard(const Matrix& other) const;
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Adds a 1 x cols bias row to every row.
  Matrix AddRowBroadcast(const Matrix& bias) const;

  /// Applies f to every entry.
  Matrix Map(const std::function<double(double)>& f) const;

  /// Sum of all entries.
  double Sum() const;
  /// Column-wise sum as a 1 x cols matrix.
  Matrix ColSums() const;
  /// Column-wise mean as a 1 x cols matrix; zero rows yield zeros.
  Matrix ColMeans() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// True if every entry is exactly zero (either sign). Early-exits on
  /// the first nonzero entry, so testing a live matrix is O(1) — unlike
  /// FrobeniusNorm() == 0.0, which always scans everything and reads
  /// all-subnormal matrices as zero (x*x underflows).
  bool IsZero() const;
  /// Max |a_ij - b_ij|; matrices must have equal shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// Horizontal concatenation [this | other]; equal row counts required.
  Matrix ConcatCols(const Matrix& other) const;

  /// True if shapes and all entries are exactly equal.
  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

  /// True if shapes match and entries agree within `tol`.
  bool AllClose(const Matrix& other, double tol = 1e-9) const;

  /// Compact textual form for diagnostics, e.g. "[[1, 2], [3, 4]]".
  std::string ToString() const;

 private:
  /// Shared matmul kernel; accumulates this * other into *out, which must
  /// already be zeroed and correctly shaped.
  void MatMulImpl(const Matrix& other, Matrix* out) const;

  size_t rows_;
  size_t cols_;
  // 64-byte aligned so the SIMD kernel tier (tensor/simd.h) can assume
  // cache-line-resident base pointers.
  AlignedVector data_;
};

inline Matrix operator*(double s, const Matrix& m) { return m * s; }

/// Row vectors are pervasive (per-vertex embeddings live in R^{1 x d}).
using RowVec = Matrix;

}  // namespace gelc

#endif  // GELC_TENSOR_MATRIX_H_
