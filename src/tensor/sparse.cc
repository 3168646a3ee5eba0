#include "tensor/sparse.h"

#include <algorithm>
#include <cstddef>

#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"

namespace gelc {

namespace {

// Madd count below which SpMM stays on the calling thread (same rationale
// and scale as the MatMul thresholds in matrix.cc: tiny products lose more
// to pool fan-out than they gain).
constexpr size_t kSpMMSerialWork = size_t{1} << 16;
// Target madds per shard when row-partitioning a parallel SpMM.
constexpr size_t kSpMMShardWork = size_t{1} << 15;

}  // namespace

CsrMatrix CsrMatrix::FromDense(const Matrix& m) {
  CsrMatrix out;
  out.rows = m.rows();
  out.cols = m.cols();
  out.row_offsets.reserve(m.rows() + 1);
  out.row_offsets.push_back(0);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      double x = m.At(i, j);
      if (x == 0.0) continue;
      out.col_indices.push_back(static_cast<uint32_t>(j));
      out.values.push_back(x);
    }
    out.row_offsets.push_back(out.col_indices.size());
  }
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    GELC_DCHECK_LE(row_offsets[i], row_offsets[i + 1]);
    for (size_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
      GELC_DCHECK_LT(col_indices[k], cols);
      out.At(i, col_indices[k]) = weighted() ? values[k] : 1.0;
    }
  }
  return out;
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix out;
  out.rows = cols;
  out.cols = rows;
  // Counting sort by column: one pass to size the rows of the transpose,
  // one pass to scatter. Scanning rows in ascending order places each
  // transposed row's indices in ascending order automatically.
  std::vector<size_t> counts(cols, 0);
  for (uint32_t c : col_indices) {
    GELC_DCHECK_LT(c, cols);
    ++counts[c];
  }
  out.row_offsets.assign(cols + 1, 0);
  for (size_t i = 0; i < cols; ++i)
    out.row_offsets[i + 1] = out.row_offsets[i] + counts[i];
  out.col_indices.resize(nnz());
  if (weighted()) out.values.resize(nnz());
  std::vector<size_t> next(out.row_offsets.begin(), out.row_offsets.end() - 1);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
      size_t slot = next[col_indices[k]]++;
      out.col_indices[slot] = static_cast<uint32_t>(i);
      if (weighted()) out.values[slot] = values[k];
    }
  }
  return out;
}

void SpMMInto(const CsrMatrix& a, const Matrix& b, Matrix* out) {
  GELC_CHECK(out != nullptr && out != &b);
  GELC_CHECK(a.cols == b.rows());
  GELC_CHECK(a.row_offsets.size() == a.rows + 1);
  const size_t d = b.cols();
  if (out->rows() == a.rows && out->cols() == d) {
    std::fill(out->mutable_data().begin(), out->mutable_data().end(), 0.0);
  } else {
    *out = Matrix(a.rows, d);
  }
#ifndef NDEBUG
  // Column bounds used to be checked inside the row loop; the dispatched
  // kernels (tensor/simd.h) take raw pointers, so validate up front.
  for (uint32_t c : a.col_indices) GELC_DCHECK_LT(c, a.cols);
#endif
  const double* bdata = b.data().data();
  double* odata = out->mutable_data().data();
  // The row walk is the dispatched SpMMRows kernel: ascending-index
  // accumulation per output row in every tier, with b-row prefetch in the
  // vector tiers.
  const size_t* offsets = a.row_offsets.data();
  const uint32_t* cols = a.col_indices.data();
  const double* vals = a.weighted() ? a.values.data() : nullptr;
  auto row_range = [offsets, cols, vals, bdata, odata, d](size_t row_begin,
                                                          size_t row_end) {
    simd::SpMMRows(offsets, cols, vals, bdata, odata, row_begin, row_end, d);
  };
  const size_t work = a.nnz() * std::max<size_t>(d, 1);
  static obs::Counter* calls = obs::GetCounter("spmm.calls");
  static obs::Counter* flops = obs::GetCounter("spmm.flops");
  static obs::Counter* out_rows = obs::GetCounter("spmm.rows");
  calls->Increment();
  flops->Add(2 * work);  // one multiply + one add per (nnz, j) pair
  out_rows->Add(a.rows);
  simd::CountDispatch();
  GELC_OBS_SCOPE("spmm", {{"rows", a.rows}, {"nnz", a.nnz()}, {"d", d}});
  if (work < kSpMMSerialWork || a.rows == 0) {
    static obs::Counter* serial = obs::GetCounter("spmm.serial_dispatch");
    serial->Increment();
    row_range(0, a.rows);
    return;
  }
  static obs::Counter* parallel = obs::GetCounter("spmm.parallel_dispatch");
  parallel->Increment();
  // Grain from the *average* row cost; a pure function of the CSR
  // structure, so shard boundaries (and hence scheduling) never depend on
  // the data. Rows are disjoint output slots, so any schedule produces
  // the same bits anyway.
  size_t row_work = std::max<size_t>(1, work / a.rows);
  size_t grain = std::max<size_t>(1, kSpMMShardWork / row_work);
  ParallelFor(0, a.rows, grain, row_range);
}

Matrix SpMM(const CsrMatrix& a, const Matrix& b) {
  Matrix out(a.rows, b.cols());
  SpMMInto(a, b, &out);
  return out;
}

void MergeDeltaRow(const CsrMatrix& base, const CsrDeltaRows& delta,
                   size_t v, std::vector<uint32_t>* out) {
  GELC_DCHECK_LT(v, base.rows);
  out->clear();
  const uint32_t* bc = base.col_indices.data() + base.row_offsets[v];
  const size_t bn = base.row_offsets[v + 1] - base.row_offsets[v];
  const std::vector<uint32_t>& rem = delta.remove[v];
  const std::vector<uint32_t>& add = delta.add[v];
  out->reserve(bn + add.size());
  // Three-way ascending merge: base minus removes, interleaved with adds
  // (adds are disjoint from the base row, so no tie-breaking is needed).
  size_t bi = 0, ri = 0, ai = 0;
  while (bi < bn || ai < add.size()) {
    if (bi < bn && ri < rem.size() && bc[bi] == rem[ri]) {
      ++bi;
      ++ri;
      continue;
    }
    if (ai == add.size() || (bi < bn && bc[bi] < add[ai])) {
      out->push_back(bc[bi++]);
    } else {
      out->push_back(add[ai++]);
    }
  }
  GELC_DCHECK_EQ(ri, rem.size());
}

CsrMatrix MergeDeltaRows(const CsrMatrix& base, const CsrDeltaRows& delta) {
  GELC_CHECK(!base.weighted());
  GELC_CHECK(delta.rows == base.rows);
  CsrMatrix out;
  out.rows = base.rows;
  out.cols = base.cols;
  out.row_offsets.reserve(base.rows + 1);
  out.row_offsets.push_back(0);
  out.col_indices.reserve(base.nnz() + delta.add_nnz - delta.remove_nnz);
  std::vector<uint32_t> row;
  for (size_t v = 0; v < base.rows; ++v) {
    if (delta.RowDirty(v)) {
      MergeDeltaRow(base, delta, v, &row);
      out.col_indices.insert(out.col_indices.end(), row.begin(), row.end());
    } else {
      out.col_indices.insert(
          out.col_indices.end(),
          base.col_indices.begin() + static_cast<ptrdiff_t>(
                                         base.row_offsets[v]),
          base.col_indices.begin() + static_cast<ptrdiff_t>(
                                         base.row_offsets[v + 1]));
    }
    out.row_offsets.push_back(out.col_indices.size());
  }
  return out;
}

void SpMMDeltaInto(const CsrMatrix& a, const CsrDeltaRows* delta,
                   const Matrix& b, Matrix* out) {
  if (delta == nullptr || delta->empty()) {
    SpMMInto(a, b, out);
    return;
  }
  GELC_CHECK(out != nullptr && out != &b);
  GELC_CHECK(!a.weighted());  // the delta protocol is binary-adjacency only
  GELC_CHECK(delta->rows == a.rows);
  GELC_CHECK(a.cols == b.rows());
  const size_t d = b.cols();
  if (out->rows() == a.rows && out->cols() == d) {
    std::fill(out->mutable_data().begin(), out->mutable_data().end(), 0.0);
  } else {
    *out = Matrix(a.rows, d);
  }
  const double* bdata = b.data().data();
  double* odata = out->mutable_data().data();
  const size_t* offsets = a.row_offsets.data();
  const uint32_t* cols = a.col_indices.data();
  // Rows are disjoint output slots; within a shard, clean-row runs hit the
  // base storage through the dispatched kernel and each dirty row is
  // merged into scratch and pushed through the same kernel as a one-row
  // CSR — so every output row sees the exact column sequence the
  // compacted matrix would present, in every tier.
  auto row_range = [offsets, cols, delta, &a, bdata, odata, d](
                       size_t row_begin, size_t row_end) {
    std::vector<uint32_t> scratch;
    size_t r = row_begin;
    while (r < row_end) {
      if (!delta->RowDirty(r)) {
        size_t run_end = r + 1;
        while (run_end < row_end && !delta->RowDirty(run_end)) ++run_end;
        simd::SpMMRows(offsets, cols, nullptr, bdata, odata, r, run_end, d);
        r = run_end;
      } else {
        MergeDeltaRow(a, *delta, r, &scratch);
        const size_t one_row[2] = {0, scratch.size()};
        simd::SpMMRows(one_row, scratch.data(), nullptr, bdata,
                       odata + r * d, 0, 1, d);
        ++r;
      }
    }
  };
  const size_t merged_nnz = a.nnz() + delta->add_nnz - delta->remove_nnz;
  const size_t work = merged_nnz * std::max<size_t>(d, 1);
  static obs::Counter* calls = obs::GetCounter("spmm.delta.calls");
  static obs::Counter* dirty = obs::GetCounter("spmm.delta.dirty_rows");
  static obs::Counter* flops = obs::GetCounter("spmm.flops");
  calls->Increment();
  flops->Add(2 * work);
  size_t dirty_rows = 0;
  for (size_t v = 0; v < a.rows; ++v) dirty_rows += delta->RowDirty(v) ? 1 : 0;
  dirty->Add(dirty_rows);
  simd::CountDispatch();
  GELC_OBS_SCOPE("spmm.delta",
                 {{"rows", a.rows}, {"dirty", dirty_rows}, {"d", d}});
  if (work < kSpMMSerialWork || a.rows == 0) {
    row_range(0, a.rows);
    return;
  }
  size_t row_work = std::max<size_t>(1, work / a.rows);
  size_t grain = std::max<size_t>(1, kSpMMShardWork / row_work);
  ParallelFor(0, a.rows, grain, row_range);
}

Matrix SpMMDelta(const CsrMatrix& a, const CsrDeltaRows* delta,
                 const Matrix& b) {
  Matrix out(a.rows, b.cols());
  SpMMDeltaInto(a, delta, b, &out);
  return out;
}

}  // namespace gelc
