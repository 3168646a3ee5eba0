// Segment reductions over contiguous row ranges of a dense matrix.
//
// These are the pooling kernels of batched graph execution (DESIGN.md
// "Batched execution"): a GraphBatch packs k graphs into one
// block-diagonal graph whose vertex rows are grouped by graph, and the
// per-graph readout is a reduction over each contiguous row segment.
// Segments are described by a vector of k+1 non-decreasing offsets —
// segment s covers rows [offsets[s], offsets[s+1]) — so empty segments
// (zero-vertex graphs) are representable and reduce to the zero row.
//
// Determinism contract: segment s of the output is computed by exactly
// one shard, accumulating its rows in ascending order from zero, so each
// output row carries the same bits as Matrix::ColSums / ColMeans /
// ColMax applied to that block alone, at any thread count.
#ifndef GELC_TENSOR_SEGMENT_H_
#define GELC_TENSOR_SEGMENT_H_

#include <cstddef>
#include <vector>

#include "tensor/matrix.h"

namespace gelc {

/// Per-segment column sums: k x d from n x d. `offsets` must have k+1
/// non-decreasing entries with offsets.front() == 0 and offsets.back()
/// == f.rows(). Empty segments yield zero rows.
Matrix SegmentSum(const Matrix& f, const std::vector<size_t>& offsets);

/// Per-segment column means (sum chain, then one multiply by 1/count,
/// matching Matrix::ColMeans bit-for-bit). Empty segments yield zeros.
Matrix SegmentMean(const Matrix& f, const std::vector<size_t>& offsets);

/// Per-segment column max; empty segments yield zero rows (the same
/// convention as PoolRows / NeighborAggregateInto). When `argmax_rows`
/// is non-null it is resized to k * f.cols() and entry s * cols + j
/// receives the absolute row index of the first maximum of column j in
/// segment s — or f.rows() as a sentinel for empty segments — which is
/// the subgradient convention the tape's backward pass routes by.
Matrix SegmentMax(const Matrix& f, const std::vector<size_t>& offsets,
                  std::vector<size_t>* argmax_rows = nullptr);

}  // namespace gelc

#endif  // GELC_TENSOR_SEGMENT_H_
