// Summary statistics the benchmark reports: nearest-rank percentiles with
// the "at least ten samples beyond" tail rule, and ratios that carry their
// base.
#ifndef GELC_E2E_STATS_H_
#define GELC_E2E_STATS_H_

#include <cstddef>
#include <vector>

namespace gelc::e2e {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (0 < p <= 100) of `values`: the smallest
/// sample with at least p% of the samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median as the nearest-rank 50th percentile.
double Median(std::vector<double> values);

/// How many of n samples lie beyond the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p);

/// The highest percentile of n samples that leaves at least
/// kMinSamplesBeyond samples beyond it; 0 when n is too small for any.
double TailPercentile(size_t n);

/// A ratio together with its base, so a reader can tell 1/2 from
/// 500/1000. value() is 0 when the base is empty.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den > 0 ? num / den : 0.0; }
};

}  // namespace gelc::e2e

#endif  // GELC_E2E_STATS_H_
