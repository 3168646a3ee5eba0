#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "base/parallel.h"
#include "heap.h"
#include "obs/metrics.h"
#include "stats.h"
#include "trace.h"

namespace gelc::e2e {

namespace {

// The obs counters the per-layer metrics read, summed over a phase's
// passes (set-ups between passes are left out).
constexpr std::array kCounters = {
    "plan.cache_hits",        "plan.cache_misses",
    "matmul.flops",           "spmm.flops",
    "fused.layer_rows",       "matmul.serial_dispatch",
    "matmul.parallel_dispatch", "spmm.serial_dispatch",
    "spmm.parallel_dispatch", "fused.serial_dispatch",
    "fused.parallel_dispatch", "parallel.calls",
    "parallel.serial_calls",  "parallel.tasks_scheduled",
    "graph.delta.compactions", "graph.csr_cache.misses",
    "graph.csr_cache.hits",   "wl.cr.inc.updates",
    "wl.cr.inc.fallbacks",    "wl.cr.inc.recolored",
};
using CounterValues = std::array<uint64_t, kCounters.size()>;

CounterValues ReadCounters() {
  CounterValues v{};
  for (size_t i = 0; i < kCounters.size(); ++i) {
    v[i] = obs::ReadCounter(kCounters[i]);
  }
  return v;
}

// Passes run one way: at a pool size, traced or not.
struct Phase {
  size_t threads = 0;  // 0: the pool's default size
  Tracer* tracer = nullptr;
  std::vector<std::vector<double>> pass_latency_ms;  // [pass][op]
  CounterValues counters{};

  size_t passes() const { return pass_latency_ms.size(); }
  size_t ops() const {
    return passes() == 0 ? 0 : passes() * pass_latency_ms[0].size();
  }
  // Every pass runs the same ops, so an op's median over the passes is its
  // latency with stalls from outside the process filtered out: a preempted
  // pool worker adds 1-10 ms to a 4-thread op; on a shared 4-vCPU VM it
  // hits about 1% of `train`'s 0.65 ms steps. Throughput counts each op at
  // this median, and op_p50_ms is the median of these medians.
  std::vector<double> OpMedianLatencyMs() const {
    std::vector<double> out;
    std::vector<double> samples(passes());
    for (size_t i = 0; passes() > 0 && i < pass_latency_ms[0].size(); ++i) {
      for (size_t p = 0; p < passes(); ++p) {
        samples[p] = pass_latency_ms[p][i];
      }
      out.push_back(Median(samples));
    }
    return out;
  }
  double ops_per_s() const {
    const std::vector<double> latency_ms = OpMedianLatencyMs();
    double total_ms = 0.0;
    for (double ms : latency_ms) total_ms += ms;
    return Ratio{static_cast<double>(latency_ms.size()) * 1e3, total_ms}
        .value();
  }
  // The samples op_p99_ms is taken over: the per-op medians when a pass
  // has enough distinct ops to leave ten beyond p99 (train, stream), else
  // every execution (query), so that each sample beyond p99 is a distinct
  // op or a real execution, never a copy.
  bool per_op_tail() const {
    return passes() > 0 &&
           SamplesBeyond(pass_latency_ms[0].size(), 99.0) >= kMinSamplesBeyond;
  }
  std::vector<double> TailSamplesMs() const {
    if (per_op_tail()) return OpMedianLatencyMs();
    std::vector<double> out;
    for (const std::vector<double>& pass : pass_latency_ms) {
      out.insert(out.end(), pass.begin(), pass.end());
    }
    return out;
  }
  double counter(std::string_view name) const {
    for (size_t i = 0; i < kCounters.size(); ++i) {
      if (name == kCounters[i]) return static_cast<double>(counters[i]);
    }
    GELC_CHECK(false);
    return 0.0;
  }
};

// Spawns the pool's workers, so no op pays for thread creation.
void WarmPool() {
  ParallelFor(0, ParallelThreadCount(), 1, [](size_t, size_t) {});
}

// Builds the workload (destroying the previous build first) and records
// each build's wall time and the batch-packing time inside it.
class Setups {
 public:
  explicit Setups(const RunOptions& options) : options_(options) {}

  Workload* Build() {
    w_.reset();
    Tracer tracer;
    tracer.set_enabled(options_.trace);
    SetParallelThreadCount(0);
    const int64_t t0 = NowNs();
    WarmPool();
    w_ = MakeWorkload(options_.workload, options_.seed, options_.sizes,
                      &tracer);
    const int64_t ns = NowNs() - t0;
    GELC_CHECK(w_ != nullptr);
    seconds.push_back(static_cast<double>(ns) / 1e9);
    int64_t pack_ns = 0;
    for (const Span& span : tracer.spans()) {
      if (span.layer == Layer::kGraphBatchPack) {
        pack_ns += span.end_ns - span.begin_ns;
      }
    }
    pack_ms.push_back(static_cast<double>(pack_ns) / 1e6);
    pack_share.push_back(
        Ratio{static_cast<double>(pack_ns), static_cast<double>(ns)}.value());
    return w_.get();
  }
  Workload* current() const { return w_.get(); }

  std::vector<double> seconds;
  std::vector<double> pack_ms;
  std::vector<double> pack_share;

 private:
  const RunOptions& options_;
  std::unique_ptr<Workload> w_;
};

// Interleaves passes of `a` and `b`, each on a fresh build, giving the
// next pass to the phase that has run for less time, until `seconds` are
// used, `a` ran at least `min_ops` executions and `b` two passes (so each
// op has a median over passes). Both phases thus spread over the same stretch of
// time, so a drift in the host's speed affects both alike. Every
// execution of a query must produce the same output digest, across both
// phases.
void RunPasses(Setups* setups, double seconds, size_t min_ops, Phase* a,
               Phase* b, RunReport* report) {
  std::unordered_map<uint64_t, uint64_t> first;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t a_ns = 0;
  int64_t b_ns = 0;
  for (size_t k = 0;; ++k) {
    Phase* phase = a_ns <= b_ns ? a : b;
    Workload* w = k == 0 ? setups->current() : setups->Build();
    const int64_t pass_start = NowNs();
    SetParallelThreadCount(phase->threads);
    const CounterValues before = ReadCounters();
    std::vector<double>& latency_ms = phase->pass_latency_ms.emplace_back();
    for (size_t i = 0; i < w->num_ops(); ++i) {
      const int64_t t0 = NowNs();
      bool ok = false;
      {
        ScopedSpan op(phase->tracer, Layer::kOp);
        ok = w->RunOp(i, phase->tracer);
      }
      latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      const OpOutput out = w->CheckOp(i);
      const auto [it, inserted] = first.try_emplace(out.key, out.digest);
      ok = ok && out.ok && (inserted || it->second == out.digest);
      ++report->attempted;
      if (!ok) ++report->failed;
    }
    const CounterValues after = ReadCounters();
    for (size_t c = 0; c < kCounters.size(); ++c) {
      phase->counters[c] += after[c] - before[c];
    }
    const CheckCount checks = w->FinishPass();
    report->attempted += checks.made;
    report->failed += checks.failed;
    (phase == a ? a_ns : b_ns) += NowNs() - pass_start;
    if (a->ops() >= min_ops && b->passes() >= 2 &&
        NowNs() - start >= budget_ns) {
      break;
    }
  }
  SetParallelThreadCount(0);
}

constexpr size_t kSetups = 5;  // builds before the first pass
constexpr double kMiB = 1024.0 * 1024.0;

// Peak live heap of one more build and one default-pool pass over it, run
// untimed: only this window pays for counting allocations (heap.h).
size_t PeakHeapOfOnePass(const RunOptions& options, RunReport* report) {
  StartHeapCount();
  std::unique_ptr<Workload> w =
      MakeWorkload(options.workload, options.seed, options.sizes, nullptr);
  for (size_t i = 0; i < w->num_ops(); ++i) {
    ++report->attempted;
    if (!w->RunOp(i, nullptr)) ++report->failed;
  }
  return StopHeapCount();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Base(const Ratio& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f/%.0f", r.num, r.den);
  return buf;
}

// The op-level layers, in report order; each gets .self_ms and .share.
constexpr std::array kOpLayers = {
    Layer::kCoreExec,         Layer::kCoreCompile,   Layer::kCoreParse,
    Layer::kGnnForward,       Layer::kAutodiffBackward,
    Layer::kAutodiffStep,     Layer::kGraphReplay,   Layer::kWlRefine,
};

void AddLayerTimes(const std::vector<OpBreakdown>& ops,
                   std::vector<Metric>* out) {
  int64_t wall = 0;
  LayerTimes total{};
  for (const OpBreakdown& op : ops) {
    wall += op.wall_ns;
    for (size_t l = 0; l < kNumLayers; ++l) total[l] += op.self_ns[l];
  }
  auto share = [&](Layer layer) {
    const Ratio r{static_cast<double>(total[static_cast<size_t>(layer)]),
                  static_cast<double>(wall)};
    return r.value();
  };
  for (Layer layer : kOpLayers) {
    const auto l = static_cast<size_t>(layer);
    std::vector<double> self_ms;
    for (const OpBreakdown& op : ops) {
      if (op.entered[l]) {
        self_ms.push_back(static_cast<double>(op.self_ns[l]) / 1e6);
      }
    }
    const std::string name = LayerName(layer);
    out->push_back({name + ".self_ms", Median(self_ms), "ms",
                    "median of " + std::to_string(self_ms.size()) + " ops"});
    out->push_back({name + ".share", share(layer), "ratio", ""});
  }
  out->push_back({"unattributed.share", share(Layer::kOp), "ratio", ""});
}

void AddCounterMetrics(const Phase& phase, std::vector<Metric>* out) {
  auto d = [&](std::string_view name) { return phase.counter(name); };
  const auto ops = static_cast<double>(phase.ops());
  auto ratio = [&](const char* name, Ratio r) {
    out->push_back({name, r.value(), "ratio", Base(r)});
  };
  auto per_op = [&](const char* name, double count, const char* unit) {
    out->push_back({name, Ratio{count, ops}.value(), unit, ""});
  };
  const double hits = d("plan.cache_hits");
  const double misses = d("plan.cache_misses");
  ratio("core.plan_cache.hit_ratio", {hits, hits + misses});
  out->push_back({"core.plan_cache.misses",
                  Ratio{misses, static_cast<double>(phase.passes())}.value(),
                  "count", "per pass"});
  per_op("tensor.matmul.flops_per_op", d("matmul.flops"), "flop/op");
  per_op("tensor.spmm.flops_per_op", d("spmm.flops"), "flop/op");
  per_op("tensor.fused.rows_per_op", d("fused.layer_rows"), "rows/op");
  const double parallel = d("matmul.parallel_dispatch") +
                          d("spmm.parallel_dispatch") +
                          d("fused.parallel_dispatch");
  const double serial = d("matmul.serial_dispatch") +
                        d("spmm.serial_dispatch") +
                        d("fused.serial_dispatch");
  ratio("tensor.parallel_dispatch_ratio", {parallel, parallel + serial});
  per_op("base.pool.calls_per_op", d("parallel.calls"), "calls/op");
  ratio("base.pool.serial_ratio",
        {d("parallel.serial_calls"), d("parallel.calls")});
  per_op("base.pool.tasks_per_op", d("parallel.tasks_scheduled"), "tasks/op");
  per_op("graph.delta.compactions_per_op", d("graph.delta.compactions"),
         "1/op");
  // Snapshot requests not served by the cached CSR: first builds plus
  // delta compactions, over those plus cache hits.
  const double rebuilt =
      d("graph.csr_cache.misses") + d("graph.delta.compactions");
  ratio("graph.csr_cache.miss_ratio",
        {rebuilt, rebuilt + d("graph.csr_cache.hits")});
  ratio("wl.refine.fallback_ratio",
        {d("wl.cr.inc.fallbacks"), d("wl.cr.inc.updates")});
  per_op("wl.refine.recolored_per_op", d("wl.cr.inc.recolored"),
         "vertices/op");
}

// Orders `metrics` as `names` lists them; every name must be present.
std::vector<Metric> InOrder(const std::vector<std::string>& names,
                            std::vector<Metric> metrics) {
  std::vector<Metric> out;
  for (const std::string& name : names) {
    for (Metric& m : metrics) {
      if (m.name == name) out.push_back(std::move(m));
    }
  }
  GELC_CHECK(out.size() == names.size());
  return out;
}

}  // namespace

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "setup_s",      "op_p50_ms",   "op_p99_ms",
      "ops_per_s",    "ops_per_s_1t", "peak_heap_mb",
  };
  return kNames;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (Layer layer : kOpLayers) {
      names.push_back(std::string(LayerName(layer)) + ".self_ms");
      names.push_back(std::string(LayerName(layer)) + ".share");
    }
    for (const char* name : {
             "unattributed.share",
             "core.plan_cache.hit_ratio",
             "core.plan_cache.misses",
             "tensor.matmul.flops_per_op",
             "tensor.spmm.flops_per_op",
             "tensor.fused.rows_per_op",
             "tensor.parallel_dispatch_ratio",
             "base.pool.calls_per_op",
             "base.pool.serial_ratio",
             "base.pool.tasks_per_op",
             "graph.delta.compactions_per_op",
             "graph.csr_cache.miss_ratio",
             "graph.batch_pack.self_ms",
             "graph.batch_pack.setup_share",
             "wl.refine.fallback_ratio",
             "wl.refine.recolored_per_op",
             "trace.overhead_frac",
         }) {
      names.push_back(name);
    }
    return names;
  }();
  return kNames;
}

Result<RunReport> RunBenchmark(const RunOptions& options) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Status::InvalidArgument("unknown workload: " + options.workload);
  }
  RunReport report;
  Setups setups(options);
  for (size_t r = 0; r < kSetups; ++r) setups.Build();
  const CheckCount pre = setups.current()->PreCheck();
  report.attempted += pre.made;
  report.failed += pre.failed;

  if (!options.trace) {
    Phase pool;
    Phase serial;
    serial.threads = 1;
    const size_t heap_bytes = PeakHeapOfOnePass(options, &report);
    // Enough default-pool executions for ten beyond p99.
    RunPasses(&setups, options.seconds, kMinSamplesBeyond * 100, &pool,
              &serial, &report);
    const std::vector<double> op_ms = pool.OpMedianLatencyMs();
    const std::vector<double> latency_ms = pool.TailSamplesMs();
    const size_t n = latency_ms.size();
    const std::string samples =
        pool.per_op_tail() ? " op medians" : " executions";
    report.metrics = {
        {"setup_s", Median(setups.seconds), "s",
         "median of " + std::to_string(setups.seconds.size()) + " set-ups"},
        {"op_p50_ms", Median(op_ms), "ms",
         std::to_string(op_ms.size()) + " op medians, " +
             std::to_string(pool.passes()) + " passes"},
        {"op_p99_ms", Percentile(latency_ms, 99.0), "ms",
         std::to_string(SamplesBeyond(n, 99.0)) + samples + " beyond"},
        {"ops_per_s", pool.ops_per_s(), "1/s", ""},
        {"ops_per_s_1t", serial.ops_per_s(), "1/s",
         std::to_string(serial.passes()) + " passes"},
        {"peak_heap_mb", static_cast<double>(heap_bytes) / kMiB, "MB",
         "live operator-new bytes, one build + pass"},
    };
    const double tail = TailPercentile(n);
    report.info = {
        {"failed_frac",
         Ratio{static_cast<double>(report.failed),
               static_cast<double>(report.attempted)}
             .value(),
         "ratio",
         std::to_string(report.failed) + "/" +
             std::to_string(report.attempted)},
        {"op_tail_ms", Percentile(latency_ms, tail), "ms",
         "p" + std::to_string(tail) + ", the highest with 10 samples beyond"},
        {"peak_rss_mb", PeakRssMb(), "MB", "allocator-dependent"},
        {"thread_scaling", Ratio{pool.ops_per_s(), serial.ops_per_s()}.value(),
         "ratio", "ops_per_s / ops_per_s_1t"},
    };
    return report;
  }

  Tracer tracer;
  tracer.set_enabled(true);
  Phase plain;
  Phase traced;
  traced.tracer = &tracer;
  RunPasses(&setups, options.seconds, 1, &plain, &traced, &report);
  std::vector<Metric> metrics;
  AddLayerTimes(BreakdownByOp(tracer.spans()), &metrics);
  AddCounterMetrics(traced, &metrics);
  metrics.push_back({"graph.batch_pack.self_ms", Median(setups.pack_ms), "ms",
                     "per set-up"});
  metrics.push_back({"graph.batch_pack.setup_share",
                     Median(setups.pack_share), "ratio", "of setup_s"});
  metrics.push_back(
      {"trace.overhead_frac",
       Ratio{plain.ops_per_s(), traced.ops_per_s()}.value() - 1.0, "ratio",
       "untraced / traced ops_per_s - 1"});
  report.metrics = InOrder(PerLayerMetricNames(), std::move(metrics));
  return report;
}

}  // namespace gelc::e2e
