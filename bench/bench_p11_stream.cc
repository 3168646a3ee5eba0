// P11: streaming-graph maintenance cost. Two questions, one sweep each:
//
//   BM_StreamReplay — sustained update throughput (ops/sec) through the
//   graph's mutation path with an SpMM read over g.Csr() every 4th
//   batch, at {n, batch, threads}; each read rebuilds the snapshot the
//   batches made stale, as the e2e `stream` read does. Each iteration
//   replays a fixed log and then its inverse (reversed order, inserts
//   and deletes swapped), so the graph returns to its start state and
//   every iteration does identical work — no unbounded drift, no
//   untimed copies.
//
//   BM_IncrementalRefine vs BM_FullRefine — per-batch color-refinement
//   maintenance cost across n at a fixed 4-op batch, over a graph of
//   disjoint 32-vertex communities. Color refinement's influence cone
//   is bounded by the components the batch touches, so the incremental
//   path's cost tracks the dirty set while the from-scratch baseline
//   re-refines all n vertices every batch — the dirty-set-not-graph-size
//   scaling claim BENCH_p11.json records (the wl_inc_saved counter is
//   the recompute-savings ledger: vertices NOT re-signed per round).
//   On a connected expander the cone can cover the graph within a few
//   rounds and the refiner correctly falls back to a full refresh —
//   tests/stream_test.cc exercises that regime; this sweep isolates the
//   locality win.
//
// tests/stream_test.cc pins both paths bit-identical to from-scratch
// rebuilds; these benches only time them, in wall time (UseRealTime) so
// the 4-thread rows count the pool's work. scripts/run_benches.sh
// records the sweep plus the stream.* / graph.delta.compactions /
// wl.cr.inc.* registry deltas into BENCH_p11.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/logging.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/update_log.h"
#include "obs/metrics.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"

namespace gelc {
namespace {

// The log that undoes `log`: reversed order, inserts <-> deletes.
// Replaying log then Inverse(log) returns the graph to its start state.
UpdateLog Inverse(const UpdateLog& log) {
  UpdateLog inv;
  inv.num_vertices = log.num_vertices;
  inv.directed = log.directed;
  inv.ops.reserve(log.ops.size());
  for (auto it = log.ops.rbegin(); it != log.ops.rend(); ++it) {
    EdgeOp op = *it;
    op.kind = op.kind == EdgeOpKind::kInsert ? EdgeOpKind::kDelete
                                             : EdgeOpKind::kInsert;
    inv.ops.push_back(op);
  }
  return inv;
}

// G(n, p) with expected degree ~8 regardless of n, so the sweep scales
// the vertex count, not the density regime.
Graph MakeBase(size_t n, Rng* rng) {
  return RandomGnp(n, 8.0 / static_cast<double>(n), rng);
}

constexpr size_t kCommunitySize = 32;

// n/32 disjoint G(32, 0.25) communities with uniform labels: refinement
// influence never leaves the components an update touches, which is the
// regime where incremental maintenance pays.
Graph MakeCommunities(size_t n, Rng* rng) {
  Graph g = Graph::Unlabeled(n);
  for (size_t lo = 0; lo < n; lo += kCommunitySize) {
    const size_t hi = std::min(n, lo + kCommunitySize);
    for (size_t u = lo; u < hi; ++u)
      for (size_t v = u + 1; v < hi; ++v)
        if (rng->NextBernoulli(0.25)) {
          GELC_CHECK_OK(
              g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v)));
        }
  }
  return g;
}

// Registry deltas over the bench body, spliced into BENCH_p11.json by
// run_benches.sh. All zero under GELC_METRICS=0 (the script passes =1).
class StreamCounters {
 public:
  StreamCounters()
      : ops_(obs::ReadCounter("stream.ops")),
        compactions_(obs::ReadCounter("graph.delta.compactions")),
        recolored_(obs::ReadCounter("wl.cr.inc.recolored")),
        saved_(obs::ReadCounter("wl.cr.inc.saved")),
        fallbacks_(obs::ReadCounter("wl.cr.inc.fallbacks")) {}

  void Attach(benchmark::State& state) const {
    auto delta = [](uint64_t before, const char* name) {
      return static_cast<double>(obs::ReadCounter(name) - before);
    };
    state.counters["stream_ops"] = delta(ops_, "stream.ops");
    state.counters["delta_compactions"] =
        delta(compactions_, "graph.delta.compactions");
    state.counters["wl_inc_recolored"] =
        delta(recolored_, "wl.cr.inc.recolored");
    state.counters["wl_inc_saved"] = delta(saved_, "wl.cr.inc.saved");
    state.counters["wl_inc_fallbacks"] =
        delta(fallbacks_, "wl.cr.inc.fallbacks");
  }

 private:
  uint64_t ops_;
  uint64_t compactions_;
  uint64_t recolored_;
  uint64_t saved_;
  uint64_t fallbacks_;
};

void ReplaySweep(benchmark::internal::Benchmark* b) {
  for (int64_t n : {1024, 8192})
    for (int64_t batch : {16, 256})
      for (int64_t threads : {1, 4}) b->Args({n, batch, threads});
}

// Sustained mutation throughput, with an SpMM read over the rebuilt
// snapshot every 4th batch (a streaming GNN layer's cadence).
// items/sec = applied ops/sec.
void BM_StreamReplay(benchmark::State& state) {
  SetParallelThreadCount(static_cast<size_t>(state.range(2)));
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  Graph g = MakeBase(n, &rng);
  (void)g.Csr();  // the first build, outside the timed loop
  UpdateLog fwd = GenerateUpdateLog(g, 512, 0.35, &rng);
  UpdateLog bwd = Inverse(fwd);
  Matrix features = Matrix::RandomUniform(n, 16, -1.0, 1.0, &rng);
  ReplayOptions options;
  options.batch_size = static_cast<size_t>(state.range(1));
  size_t batches = 0;
  Matrix out;
  auto read_some = [&](const ReplayBatch&) {
    if (++batches % 4 == 0) {
      SpMMInto(g.Csr().adjacency(), features, &out);
      benchmark::DoNotOptimize(out.data().data());
      benchmark::ClobberMemory();
    }
    return Status::OK();
  };
  StreamCounters counters;
  for (auto _ : state) {
    GELC_CHECK_OK(ReplayUpdateLog(fwd, &g, options, read_some));
    GELC_CHECK_OK(ReplayUpdateLog(bwd, &g, options, read_some));
  }
  counters.Attach(state);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fwd.ops.size() * 2));
  SetParallelThreadCount(0);
}
BENCHMARK(BM_StreamReplay)->Apply(ReplaySweep)->UseRealTime();

void RefineSweep(benchmark::internal::Benchmark* b) {
  for (int64_t n : {512, 2048, 8192}) b->Args({n});
}

constexpr size_t kRefineBatchOps = 4;

// Per-batch incremental maintenance: toggle 4 edges, patch the color
// history, toggle them back, patch again. Cost follows the dirty
// frontier — a handful of communities — not n (compare against
// BM_FullRefine at the same args). The fallback is disabled so the sweep
// times the pure patch path even at the smallest n, where the touched
// communities are a sizable fraction of the graph.
void BM_IncrementalRefine(benchmark::State& state) {
  SetParallelThreadCount(1);
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  Graph g = MakeCommunities(n, &rng);
  (void)g.Csr();
  UpdateLog fwd = GenerateUpdateLog(g, kRefineBatchOps, 0.5, &rng);
  UpdateLog bwd = Inverse(fwd);
  IncrementalColorRefiner::Options refiner_options;
  refiner_options.fallback_dirty_fraction = 1.0;
  IncrementalColorRefiner refiner(&g, refiner_options);
  ReplayOptions options;
  options.batch_size = kRefineBatchOps;  // one batch per log
  auto update = [&](const ReplayBatch& batch) {
    refiner.Update(batch.touched);
    return Status::OK();
  };
  StreamCounters counters;
  for (auto _ : state) {
    GELC_CHECK_OK(ReplayUpdateLog(fwd, &g, options, update));
    GELC_CHECK_OK(ReplayUpdateLog(bwd, &g, options, update));
  }
  counters.Attach(state);
  state.SetItemsProcessed(state.iterations() * 2);  // batches maintained
  SetParallelThreadCount(0);
}
BENCHMARK(BM_IncrementalRefine)->Apply(RefineSweep)->UseRealTime();

// The from-scratch baseline: same toggles, full re-refinement per batch.
void BM_FullRefine(benchmark::State& state) {
  SetParallelThreadCount(1);
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  Graph g = MakeCommunities(n, &rng);
  (void)g.Csr();
  UpdateLog fwd = GenerateUpdateLog(g, kRefineBatchOps, 0.5, &rng);
  UpdateLog bwd = Inverse(fwd);
  ReplayOptions options;
  options.batch_size = kRefineBatchOps;
  auto refine = [&](const ReplayBatch&) {
    CrColoring cr = RunColorRefinement({&g});
    benchmark::DoNotOptimize(cr);
    return Status::OK();
  };
  StreamCounters counters;
  for (auto _ : state) {
    GELC_CHECK_OK(ReplayUpdateLog(fwd, &g, options, refine));
    GELC_CHECK_OK(ReplayUpdateLog(bwd, &g, options, refine));
  }
  counters.Attach(state);
  state.SetItemsProcessed(state.iterations() * 2);
  SetParallelThreadCount(0);
}
BENCHMARK(BM_FullRefine)->Apply(RefineSweep)->UseRealTime();

}  // namespace
}  // namespace gelc
