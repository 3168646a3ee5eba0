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
// output row carries the same bits as Matrix::ColSums applied to that
// block alone, at any thread count.
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

}  // namespace gelc

#endif  // GELC_TENSOR_SEGMENT_H_
