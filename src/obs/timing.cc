#include "obs/timing.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace gelc {
namespace obs {

namespace {

// The shared log-spaced bound table: exact small values 1..4, then four
// linear steps per power-of-two octave up to 2^36 ns (~68.7s). Relative
// bucket width is <= 25% everywhere past the exact range, which keeps
// interpolated percentiles honest without hundreds of buckets. Constant
// initialization means the table is never destroyed.
constexpr std::array<int64_t, LatencyHistogram::kNumBounds> kBounds = [] {
  std::array<int64_t, LatencyHistogram::kNumBounds> bounds{1, 2, 3, 4};
  size_t i = 4;
  for (int64_t octave = 4; octave < (int64_t{1} << 36); octave *= 2) {
    for (int64_t step = 1; step <= 4; ++step) {
      bounds[i++] = octave + step * (octave / 4);
    }
  }
  return bounds;
}();
static_assert(kBounds.back() == int64_t{1} << 36);

// Latency histograms keyed by name in a sorted map (snapshot iteration
// order is deterministic), mirroring the metrics Registry. The mutex
// guards registration only; Observe never takes it.
struct TimingRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
};

// Never destroyed: the exit exporter reads it during static destruction.
TimingRegistry& GlobalTimingRegistry() {
  static TimingRegistry& registry =
      *new TimingRegistry;  // NOLINT(banned-alloc): never destroyed
  return registry;
}

std::string FormatMsFixed(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

}  // namespace

void LatencyHistogram::Observe(int64_t ns, int64_t exclusive_ns) {
  if (!TimingsEnabled()) return;
  Shard& shard = shards_[internal::ThisThreadShard()];
  shard.counts[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  shard.sum_ns.fetch_add(std::max<int64_t>(ns, 0), std::memory_order_relaxed);
  shard.exclusive_ns.fetch_add(std::max<int64_t>(exclusive_ns, 0),
                               std::memory_order_relaxed);
}

std::vector<uint64_t> LatencyHistogram::Counts() const {
  std::vector<uint64_t> out(kNumBuckets, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      out[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& c : shard.counts) {
      total += c.load(std::memory_order_relaxed);
    }
  }
  return total;
}

int64_t LatencyHistogram::SumNs() const {
  int64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.sum_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

int64_t LatencyHistogram::ExclusiveSumNs() const {
  int64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.exclusive_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

void LatencyHistogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum_ns.store(0, std::memory_order_relaxed);
    shard.exclusive_ns.store(0, std::memory_order_relaxed);
  }
}

const std::array<int64_t, LatencyHistogram::kNumBounds>&
LatencyHistogram::BucketBounds() {
  return kBounds;
}

size_t LatencyHistogram::BucketIndex(int64_t ns) {
  // Same inclusive-upper-bound convention as obs::Histogram: bucket i
  // holds values <= bounds[i]; anything past the last bound overflows.
  return static_cast<size_t>(
      std::lower_bound(kBounds.begin(), kBounds.end(), ns) - kBounds.begin());
}

double LatencyHistogram::QuantileNs(const std::vector<uint64_t>& counts,
                                    double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // 0-based continuous rank; interpolate at the midpoint convention so
  // a single-observation histogram reports that bucket's interior.
  const double rank = q * (static_cast<double>(total) - 1.0);
  double cum = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double in_bucket = static_cast<double>(counts[b]);
    if (rank < cum + in_bucket) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(kBounds[b - 1]);
      // The overflow bucket has no upper edge; report its lower edge.
      if (b >= kBounds.size()) return static_cast<double>(kBounds.back());
      const double hi = static_cast<double>(kBounds[b]);
      const double frac = (rank - cum + 0.5) / in_bucket;
      return lo + frac * (hi - lo);
    }
    cum += in_bucket;
  }
  return static_cast<double>(kBounds.back());
}

LatencyHistogram* GetLatencyHistogram(const std::string& name) {
  TimingRegistry& r = GlobalTimingRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms
             .emplace(name, std::make_unique<LatencyHistogram>(name))
             .first;
  }
  return it->second.get();
}

std::vector<LatencySample> TimingSnapshot() {
  TimingRegistry& r = GlobalTimingRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<LatencySample> out;
  for (const auto& [name, hist] : r.histograms) {
    std::vector<uint64_t> counts = hist->Counts();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    if (total == 0) continue;
    LatencySample sample;
    sample.name = name;
    sample.count = total;
    sample.sum_ns = hist->SumNs();
    sample.exclusive_ns = hist->ExclusiveSumNs();
    sample.p50_ns = LatencyHistogram::QuantileNs(counts, 0.50);
    sample.p90_ns = LatencyHistogram::QuantileNs(counts, 0.90);
    sample.p99_ns = LatencyHistogram::QuantileNs(counts, 0.99);
    out.push_back(std::move(sample));
  }
  return out;
}

uint64_t TimingObservationCount() {
  TimingRegistry& r = GlobalTimingRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  uint64_t total = 0;
  for (const auto& [name, hist] : r.histograms) total += hist->TotalCount();
  return total;
}

std::string TimingSummaryText() {
  std::vector<LatencySample> samples = TimingSnapshot();
  if (samples.empty()) return "(no timings recorded)\n";
  std::ostringstream out;
  out << "timer                                     count      p50_ms"
         "      p90_ms      p99_ms    total_ms     excl_ms\n";
  // Phase = the series name up to the first '.' (the same convention
  // the trace-span names follow), so "train.epoch" and "train.step"
  // roll up under "train". std::map keeps rollup order deterministic.
  std::map<std::string, std::pair<uint64_t, int64_t>> phases;
  for (const LatencySample& s : samples) {
    std::string label = s.name;
    if (label.size() < 40) label.resize(40, ' ');
    char line[192];
    std::snprintf(line, sizeof(line), "%s %6llu %11s %11s %11s %11s %11s\n",
                  label.c_str(), static_cast<unsigned long long>(s.count),
                  FormatMsFixed(s.p50_ns).c_str(),
                  FormatMsFixed(s.p90_ns).c_str(),
                  FormatMsFixed(s.p99_ns).c_str(),
                  FormatMsFixed(static_cast<double>(s.sum_ns)).c_str(),
                  FormatMsFixed(static_cast<double>(s.exclusive_ns)).c_str());
    out << line;
    auto& [calls, exclusive] = phases[s.name.substr(0, s.name.find('.'))];
    calls += s.count;
    exclusive += s.exclusive_ns;
  }
  out << "phase rollup (exclusive ms):\n";
  auto rollup_line = [&out](const std::string& name, uint64_t calls,
                            int64_t exclusive) {
    std::string label = "  " + name;
    if (label.size() < 40) label.resize(40, ' ');
    char line[160];
    std::snprintf(line, sizeof(line), "%s %6llu %59s\n", label.c_str(),
                  static_cast<unsigned long long>(calls),
                  FormatMsFixed(static_cast<double>(exclusive)).c_str());
    out << line;
  };
  uint64_t total_calls = 0;
  int64_t total_exclusive = 0;
  for (const auto& [phase, tally] : phases) {
    rollup_line(phase, tally.first, tally.second);
    total_calls += tally.first;
    total_exclusive += tally.second;
  }
  rollup_line("total", total_calls, total_exclusive);
  return out.str();
}

void ResetTimingsForTest() {
  TimingRegistry& r = GlobalTimingRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, hist] : r.histograms) hist->Reset();
}

}  // namespace obs
}  // namespace gelc
