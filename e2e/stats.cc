#include "stats.h"

#include <algorithm>
#include <cmath>

namespace gelc::e2e {

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
size_t Rank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t k = Rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

double TailPercentile(size_t n) {
  if (n <= kMinSamplesBeyond) return 0.0;
  return 100.0 * static_cast<double>(n - kMinSamplesBeyond) /
         static_cast<double>(n);
}

}  // namespace gelc::e2e
