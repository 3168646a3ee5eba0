#include "tensor/segment.h"

#include <algorithm>
#include <functional>

#include "base/logging.h"
#include "base/parallel.h"
#include "tensor/simd.h"

namespace gelc {

namespace {

// Reduction work (entries read) below which the kernels stay serial,
// mirroring the SpMM / MatMul / fused-kernel thresholds.
constexpr size_t kSegmentSerialWork = size_t{1} << 16;
constexpr size_t kSegmentShardWork = size_t{1} << 15;

void CheckOffsets(const Matrix& f, const std::vector<size_t>& offsets) {
  GELC_CHECK(!offsets.empty());
  GELC_CHECK(offsets.front() == 0);
  GELC_CHECK(offsets.back() == f.rows());
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    GELC_DCHECK_LE(offsets[s], offsets[s + 1]);
  }
}

// Runs fn(segment) over every segment, one segment per shard index, so
// each output row is owned by exactly one shard (bit-identical at any
// thread count).
void ForEachSegment(size_t num_segments, size_t total_work,
                    const std::function<void(size_t)>& fn) {
  auto range = [&fn](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) fn(s);
  };
  if (total_work < kSegmentSerialWork || num_segments == 0) {
    range(0, num_segments);
    return;
  }
  size_t per_segment = std::max<size_t>(1, total_work / num_segments);
  size_t grain = std::max<size_t>(1, kSegmentShardWork / per_segment);
  ParallelFor(0, num_segments, grain, range);
}

}  // namespace

Matrix SegmentSum(const Matrix& f, const std::vector<size_t>& offsets) {
  CheckOffsets(f, offsets);
  size_t k = offsets.size() - 1;
  size_t d = f.cols();
  Matrix out(k, d);
  const double* fdata = f.data().data();
  double* odata = out.mutable_data().data();
  simd::CountDispatch();
  ForEachSegment(k, f.rows() * std::max<size_t>(d, 1), [&](size_t s) {
    double* orow = odata + s * d;
    for (size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      simd::AddRow(orow, fdata + i * d, d);
    }
  });
  return out;
}

}  // namespace gelc
