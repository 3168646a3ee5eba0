#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

// The pool instruments itself with counters and trace spans, which lives
// one layer up. This is the single sanctioned base -> obs edge: obs is
// header-only from base's perspective and keeping the instrumentation
// here beats pushing a callback seam through every parallel call site.
#include "obs/metrics.h"  // NOLINT(include-layering)
#include "obs/trace.h"    // NOLINT(include-layering)

namespace gelc {

namespace {

thread_local bool tls_in_worker = false;

// Global work-queue pool. Workers are spawned lazily (first parallel call)
// and grown on demand, never shrunk; the Meyers singleton joins them at
// process exit, by which point ParallelFor guarantees the queue is empty.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Grows the pool to at least n workers.
  void EnsureWorkers(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < n) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  size_t num_workers() {
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  ThreadPool() = default;

  void WorkerLoop() {
    tls_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("GELC_NUM_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::atomic<size_t> g_thread_override{0};

}  // namespace

size_t ParallelThreadCount() {
  size_t forced = g_thread_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const size_t kDefault = DefaultThreadCount();
  return kDefault;
}

void SetParallelThreadCount(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool InParallelWorker() { return tls_in_worker; }

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t threads = ParallelThreadCount();
  const size_t shards = std::min(threads, (n + grain - 1) / grain);
  static obs::Counter* calls = obs::GetCounter("parallel.calls");
  calls->Increment();
  // Serial path: one thread configured, range below the grain, or already
  // inside a pool worker (a nested wait on the pool could deadlock).
  if (shards <= 1 || tls_in_worker) {
    static obs::Counter* serial = obs::GetCounter("parallel.serial_calls");
    serial->Increment();
    fn(begin, end);
    return;
  }

  // Deterministic scheduling facts only: tasks handed to the pool and the
  // shard fan-out per call. Observed queue depth would be racy and vary
  // run to run, so it stays out of the registry.
  static obs::Counter* scheduled = obs::GetCounter("parallel.tasks_scheduled");
  scheduled->Add(shards - 1);
  static obs::Histogram* shard_hist = obs::GetHistogram(
      "parallel.shards_per_call", {1, 2, 4, 8, 16, 32, 64});
  shard_hist->Observe(static_cast<int64_t>(shards));
  GELC_OBS_SCOPE("parallel.for", {{"n", n}, {"shards", shards}});

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(shards - 1);

  struct SharedState {
    std::mutex mu;
    std::condition_variable done;
    size_t pending;
    std::exception_ptr error;
  } state;
  state.pending = shards - 1;

  // Deterministic even split: the first n % shards shards get one extra
  // index. Shard 0 runs on the calling thread after the rest are queued.
  const size_t chunk = n / shards;
  const size_t rem = n % shards;
  std::vector<std::pair<size_t, size_t>> bounds(shards);
  size_t next = begin;
  for (size_t s = 0; s < shards; ++s) {
    size_t len = chunk + (s < rem ? 1 : 0);
    bounds[s] = {next, next + len};
    next += len;
  }

  for (size_t s = 1; s < shards; ++s) {
    const size_t b = bounds[s].first;
    const size_t e = bounds[s].second;
    pool.Submit([&state, &fn, b, e, s] {
      // Span and timer live in an inner scope so their destructors (which
      // record the observations) run before the completion signal below:
      // once pending hits 0 the caller may return and tear down state the
      // next snapshot depends on, so nothing observable may trail it.
      {
        GELC_OBS_SCOPE("parallel.shard", {{"shard", s}, {"len", e - b}});
        try {
          fn(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state.mu);
          if (!state.error) state.error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending == 0) state.done.notify_one();
    });
  }
  try {
    GELC_OBS_SCOPE("parallel.shard",
                   {{"shard", 0}, {"len", bounds[0].second - bounds[0].first}});
    fn(bounds[0].first, bounds[0].second);
  } catch (...) {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.error) state.error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done.wait(lock, [&state] { return state.pending == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace gelc
