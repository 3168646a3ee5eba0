#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "base/logging.h"

namespace gelc {
namespace obs {

namespace internal {

size_t ThisThreadShard() {
  // Shards are dealt round-robin in thread-creation order, so the main
  // thread and the first kShards-1 pool workers each own a distinct
  // cache line (the pool never shrinks, so ids are stable).
  static std::atomic<size_t> next_id{0};
  thread_local size_t shard =
      next_id.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

Histogram::Histogram(std::string name, std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      name_(std::move(name)) {
  GELC_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  GELC_CHECK(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
             bounds_.end());
}

void Histogram::Observe(int64_t value) {
  if (!MetricsEnabled()) return;
  // Bucket i holds values <= bounds_[i]; lower_bound lands exactly there
  // (values past the last bound fall into the overflow bucket).
  size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::Counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

// All three metric kinds keyed by name in sorted maps, so snapshot
// iteration order is deterministic. Handles are unique_ptrs that live
// until process exit; the registry mutex guards registration only —
// record paths never take it.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

// Never destroyed: the exit exporter reads it during static destruction.
Registry& GlobalRegistry() {
  static Registry& registry =
      *new Registry;  // NOLINT(banned-alloc): never destroyed
  return registry;
}

}  // namespace

Counter* GetCounter(const std::string& name) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(name, std::make_unique<Counter>(name)).first;
  }
  return it->second.get();
}

Gauge* GetGauge(const std::string& name) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(name, std::make_unique<Gauge>(name)).first;
  }
  return it->second.get();
}

Histogram* GetHistogram(const std::string& name,
                        const std::vector<int64_t>& bounds) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms
             .emplace(name, std::make_unique<Histogram>(name, bounds))
             .first;
  }
  return it->second.get();
}

uint64_t ReadCounter(const std::string& name) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second->Read();
}

void ResetMetricsForTest() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->Reset();
  for (auto& [name, g] : r.gauges) g->Reset();
  for (auto& [name, h] : r.histograms) h->Reset();
}

namespace internal {

void VisitMetrics(const std::function<void(const Counter&)>& on_counter,
                  const std::function<void(const Gauge&)>& on_gauge,
                  const std::function<void(const Histogram&)>& on_histogram) {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& [name, c] : r.counters) on_counter(*c);
  for (const auto& [name, g] : r.gauges) on_gauge(*g);
  for (const auto& [name, h] : r.histograms) on_histogram(*h);
}

}  // namespace internal

}  // namespace obs
}  // namespace gelc
