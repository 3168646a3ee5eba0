#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"

namespace gelc {

namespace {

// Flop count below which MatMul stays on the calling thread: tiny
// GNN-layer products lose more to pool fan-out than they gain. The
// crossover moved when the vector tier landed: fan-out cost is fixed
// (wake + shard + join) while the AVX2 kernel retires ~4-6x the madds
// per cycle of the scalar one (BENCH_p7, 256-square single-thread:
// ~1.97 vs ~11.7 G madds/s), so a product must be that much larger
// before the same fan-out amortizes. The scalar constant keeps its
// PR 1 value (2^16, re-validated then); the vector tiers scale it by
// the measured throughput ratio, rounded to a power of two: 2^18.
constexpr size_t kMatMulSerialWorkScalar = size_t{1} << 16;
constexpr size_t kMatMulSerialWorkVector = size_t{1} << 18;
// Target flops per shard when row-partitioning a parallel MatMul.
constexpr size_t kMatMulShardWork = size_t{1} << 15;

size_t MatMulSerialWork() {
  return simd::ActiveTier() == simd::Tier::kScalar ? kMatMulSerialWorkScalar
                                                   : kMatMulSerialWorkVector;
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& row : rows) {
    if (cols_ == 0) cols_ = row.size();
    GELC_CHECK(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
  if (rows_ == 0) cols_ = 0;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, double lo, double hi,
                             Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->NextUniform(lo, hi);
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, double stddev,
                              Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = stddev * rng->NextGaussian();
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  Matrix m(1, values.size());
  m.data_.assign(values.begin(), values.end());
  return m;
}

Matrix Matrix::Row(size_t r) const {
  GELC_CHECK(r < rows_);
  Matrix out(1, cols_);
  std::copy(data_.begin() + r * cols_, data_.begin() + (r + 1) * cols_,
            out.data_.begin());
  return out;
}

void Matrix::SetRow(size_t r, const Matrix& row) {
  GELC_CHECK(r < rows_ && row.rows() == 1 && row.cols() == cols_);
  std::copy(row.data_.begin(), row.data_.end(), data_.begin() + r * cols_);
}

void Matrix::MatMulImpl(const Matrix& other, Matrix* out) const {
  const size_t inner = cols_;
  const size_t ocols = other.cols_;
  // The inner loops live behind the simd dispatch layer (tensor/simd.h):
  // the installed tier picks scalar i-k-j, cache-blocked AVX2, or FMA
  // bodies, all accumulating each output cell in ascending-k order. Each
  // shard owns a contiguous row range of `out`, so any shard schedule
  // produces the same bits as the serial loop.
  const double* adata = data_.data();
  const double* bdata = other.data_.data();
  double* odata = out->data_.data();
  auto row_range = [adata, bdata, odata, inner, ocols](size_t row_begin,
                                                       size_t row_end) {
    simd::MatMulRows(adata, bdata, odata, row_begin, row_end, inner, ocols);
  };
  const size_t work = rows_ * inner * ocols;
  static obs::Counter* calls = obs::GetCounter("matmul.calls");
  static obs::Counter* flops = obs::GetCounter("matmul.flops");
  static obs::Counter* out_rows = obs::GetCounter("matmul.rows");
  calls->Increment();
  flops->Add(2 * work);  // one multiply + one add per (i, k, j) triple
  out_rows->Add(rows_);
  simd::CountDispatch();
  GELC_OBS_SCOPE("matmul", {{"rows", rows_}, {"inner", inner},
                            {"ocols", ocols}});
  if (work < MatMulSerialWork()) {
    static obs::Counter* serial = obs::GetCounter("matmul.serial_dispatch");
    serial->Increment();
    row_range(0, rows_);
    return;
  }
  static obs::Counter* parallel = obs::GetCounter("matmul.parallel_dispatch");
  parallel->Increment();
  size_t row_work = std::max<size_t>(1, inner * ocols);
  size_t grain = std::max<size_t>(1, kMatMulShardWork / row_work);
  ParallelFor(0, rows_, grain, row_range);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  GELC_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  MatMulImpl(other, &out);
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix* out) const {
  GELC_CHECK(out != nullptr && out != this && out != &other);
  GELC_CHECK(cols_ == other.rows_);
  if (out->rows_ == rows_ && out->cols_ == other.cols_) {
    std::fill(out->data_.begin(), out->data_.end(), 0.0);
  } else {
    out->rows_ = rows_;
    out->cols_ = other.cols_;
    out->data_.assign(rows_ * other.cols_, 0.0);
  }
  MatMulImpl(other, out);
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  GELC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  GELC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  GELC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::AddRowBroadcast(const Matrix& bias) const {
  GELC_CHECK(bias.rows() == 1 && bias.cols() == cols_);
  Matrix out = *this;
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) out.At(i, j) += bias.At(0, j);
  return out;
}

Matrix Matrix::Map(const std::function<double(double)>& f) const {
  Matrix out = *this;
  for (double& x : out.data_) x = f(x);
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

Matrix Matrix::ColSums() const {
  Matrix out(1, cols_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) out.At(0, j) += At(i, j);
  return out;
}

Matrix Matrix::ColMeans() const {
  if (rows_ == 0) return Matrix(1, cols_);
  Matrix out = ColSums();
  out *= 1.0 / static_cast<double>(rows_);
  return out;
}

Matrix Matrix::ColMax() const {
  GELC_CHECK(rows_ > 0);
  Matrix out = Row(0);
  for (size_t i = 1; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j)
      out.At(0, j) = std::max(out.At(0, j), At(i, j));
  return out;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

bool Matrix::IsZero() const {
  for (double x : data_)
    if (x != 0.0) return false;
  return true;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  GELC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  GELC_CHECK(rows_ == other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.At(i, j) = At(i, j);
    for (size_t j = 0; j < other.cols_; ++j)
      out.At(i, cols_ + j) = other.At(i, j);
  }
  return out;
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  return true;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < rows_; ++i) {
    if (i) os << ", ";
    os << "[";
    for (size_t j = 0; j < cols_; ++j) {
      if (j) os << ", ";
      os << At(i, j);
    }
    os << "]";
  }
  os << "]";
  return os.str();
}

}  // namespace gelc
