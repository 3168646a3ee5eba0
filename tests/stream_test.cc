// Differential tests for the streaming layer (DESIGN.md §12): delta-CSR
// maintenance, update-log replay, and incremental color refinement are
// each pinned against their from-scratch counterparts with *exact*
// equality — the same bit-for-bit contract the batch/plan/simd suites
// use. The headline suite replays ≥200 random interleavings of inserts,
// deletes, compactions, and reads, and after every batch checks
//
//   * SpMMDelta over the uncompacted delta view == SpMM over a CSR
//     rebuilt from scratch (byte-equal doubles),
//   * Csr() compaction == a fresh CsrGraph(g) — all three operators'
//     vectors compare equal element-for-element,
//   * IncrementalColorRefiner == a fresh RunColorRefinement: same
//     vertex partition and same round count,
//   * tape SparseMatMul gradients through the mutated graph's views ==
//     gradients through a never-mutated graph with the same edges.
//
// Registered with GELC_NUM_THREADS=1 and =4 ctest variants (and run
// under TSAN by scripts/check.sh), so the determinism contract of the
// parallel signature/SpMM passes is exercised at both ends.
#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "autodiff/tape.h"
#include "base/rng.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/update_log.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"

namespace gelc {
namespace {

constexpr size_t kFeatureDim = 2;

// Random labelled graph with one-hot features, same recipe as
// fuzz_test.cc so failures cross-reference.
Graph RandomLabelledGraph(Rng* rng, size_t max_n, bool directed) {
  size_t n = 2 + rng->NextBounded(max_n - 1);
  Graph g(n, kFeatureDim, directed);
  for (size_t v = 0; v < n; ++v)
    g.SetOneHotFeature(static_cast<VertexId>(v),
                       rng->NextBounded(kFeatureDim));
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = directed ? 0 : u + 1; v < n; ++v) {
      if (u == v) continue;
      if (rng->NextBernoulli(0.3)) {
        g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v))
            .IgnoreError();
      }
    }
  }
  return g;
}

// Rebuilds g's current structure into a brand-new Graph that has never
// been mutated after construction — the from-scratch baseline.
Graph RebuildFromScratch(const Graph& g) {
  Graph fresh(g.num_vertices(), g.feature_dim(), g.directed());
  fresh.mutable_features() = g.features();
  for (size_t u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (!g.directed() && v < u) continue;
      EXPECT_TRUE(fresh.AddEdge(static_cast<VertexId>(u), v).ok());
    }
  }
  return fresh;
}

// Canonical form of a coloring: ids renumbered by first occurrence, so
// two colorings compare equal iff they induce the same partition.
std::vector<uint64_t> NormalizePartition(const std::vector<uint64_t>& c) {
  std::map<uint64_t, uint64_t> remap;
  std::vector<uint64_t> out;
  out.reserve(c.size());
  for (uint64_t id : c) {
    auto it = remap.emplace(id, remap.size()).first;
    out.push_back(it->second);
  }
  return out;
}

void ExpectSameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.row_offsets, b.row_offsets);
  EXPECT_EQ(a.col_indices, b.col_indices);
  EXPECT_EQ(a.values, b.values);
}

void ExpectBitEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a.At(i, j), b.At(i, j)) << "at (" << i << "," << j << ")";
}

// ---------------------------------------------------------------------------
// Headline differential fuzz: random interleavings of inserts, deletes,
// compactions, and reads; every observable view stays exactly equal to a
// from-scratch rebuild after every batch.

class StreamDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamDifferentialFuzz, AllViewsMatchFromScratchAfterEveryBatch) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 16987);
  const bool directed = (seed % 2) == 1;
  Graph g = RandomLabelledGraph(&rng, 14, directed);

  // Vary the compaction regime across seeds: eager (tiny threshold),
  // auto, and effectively-never, so every interleaving class is covered.
  switch (seed % 3) {
    case 0:
      g.set_csr_compaction_threshold(3);
      break;
    case 1:
      g.set_csr_compaction_threshold(0);  // auto: max(256, nnz/4)
      break;
    default:
      g.set_csr_compaction_threshold(1u << 20);
      break;
  }

  // Warm the CSR base so mutations go through the delta path.
  (void)g.Csr();
  IncrementalColorRefiner refiner(
      &g, IncrementalColorRefiner::Options{/*fallback_dirty_fraction=*/
                                           (seed % 5 == 0) ? 0.05 : 1.0});

  Rng oprng(seed * 40961 + 7);
  UpdateLog log = GenerateUpdateLog(g, /*num_ops=*/40,
                                    /*delete_fraction=*/0.4, &oprng);
  ReplayOptions options;
  options.batch_size = 1 + seed % 9;

  Rng readrng(seed * 28657 + 3);
  const Matrix dense =
      Matrix::RandomUniform(g.num_vertices(), 4, -1.0, 1.0, &readrng);

  size_t batches = 0;
  auto check_batch = [&](const ReplayBatch& batch) {
    ++batches;
    Graph fresh = RebuildFromScratch(g);

    // (1) Delta-merged SpMM against the from-scratch operator, without
    // compacting (the delta views must not fold the pending edits).
    const size_t pending_before = g.csr_pending_delta();
    DeltaCsrView adj = g.AdjacencyDeltaView();
    ExpectBitEqual(SpMMDelta(*adj.base, adj.delta, dense),
                   SpMM(fresh.Csr().adjacency(), dense));
    DeltaCsrView tr = g.TransposeDeltaView();
    ExpectBitEqual(SpMMDelta(*tr.base, tr.delta, dense),
                   SpMM(fresh.Csr().transpose(), dense));
    EXPECT_EQ(g.csr_pending_delta(), pending_before);

    // (2) Incremental refinement against a from-scratch run: same
    // partition, same round count (ids may differ).
    refiner.Update(batch.touched);
    CrColoring cr = RunColorRefinement({&g});
    EXPECT_EQ(NormalizePartition(refiner.colors()),
              NormalizePartition(cr.stable[0]));
    EXPECT_EQ(refiner.rounds(), cr.rounds);

    // (3) Every third batch, force a read-compaction and compare all
    // three operators of the compacted snapshot with a fresh build.
    if (batches % 3 == 0) {
      const CsrGraph& compacted = g.Csr();
      EXPECT_EQ(g.csr_pending_delta(), 0u);
      const CsrGraph& rebuilt = fresh.Csr();
      ExpectSameCsr(compacted.adjacency(), rebuilt.adjacency());
      ExpectSameCsr(compacted.transpose(), rebuilt.transpose());
      ExpectSameCsr(compacted.normalized(), rebuilt.normalized());
      compacted.CheckFreshFor(g);  // snapshot is current by construction
    }
    return Status::OK();
  };
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, check_batch));
  EXPECT_GT(batches, 0u);

  // (4) Tape SparseMatMul gradients through the mutated graph's final
  // snapshot are bit-identical to the never-mutated rebuild's.
  Graph fresh = RebuildFromScratch(g);
  const CsrGraph& mutated_csr = g.Csr();
  const CsrGraph& fresh_csr = fresh.Csr();
  Matrix grad_mutated;
  Matrix grad_fresh;
  for (int which = 0; which < 2; ++which) {
    const CsrGraph& csr = which == 0 ? mutated_csr : fresh_csr;
    Rng wseed(seed * 7919 + 11);
    Parameter w(Matrix::RandomUniform(4, 3, -1.0, 1.0, &wseed));
    Tape tape;
    ValueId x = tape.Input(dense);
    ValueId agg = tape.SparseMatMul(&csr.adjacency(), &csr.transpose(), x);
    ValueId h = tape.MatMul(agg, tape.Param(&w));
    ValueId loss = tape.Mse(h, Matrix(g.num_vertices(), 3));
    tape.Backward(loss);
    (which == 0 ? grad_mutated : grad_fresh) = w.grad;
  }
  ExpectBitEqual(grad_mutated, grad_fresh);
}

// 200 interleavings: even seeds undirected, odd directed; three
// compaction regimes; batch sizes 1..9; every fifth seed runs the
// refiner with an aggressive fallback threshold.
INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 201));

// ---------------------------------------------------------------------------
// Delta-CSR unit coverage.

TEST(DeltaCsr, ViewIsExactBeforeAnyMutation) {
  Rng rng(5);
  Graph g = RandomLabelledGraph(&rng, 10, /*directed=*/false);
  (void)g.Csr();
  DeltaCsrView view = g.AdjacencyDeltaView();
  ASSERT_NE(view.base, nullptr);
  EXPECT_EQ(view.delta, nullptr);  // base is exact, no pending edits
  EXPECT_EQ(g.csr_pending_delta(), 0u);
}

TEST(DeltaCsr, MutationsAccumulateInDeltaThenCompactAtRead) {
  Graph g(6, 1, /*directed=*/false);
  g.set_csr_compaction_threshold(1u << 20);  // never auto-compact
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  // Three mutations on an undirected graph = six pending arc edits.
  EXPECT_EQ(g.csr_pending_delta(), 6u);
  DeltaCsrView view = g.AdjacencyDeltaView();
  ASSERT_NE(view.delta, nullptr);
  EXPECT_TRUE(view.delta->RowDirty(1));
  EXPECT_FALSE(view.delta->RowDirty(5));
  // Read-compaction folds everything and the delta drains.
  const CsrGraph& csr = g.Csr();
  EXPECT_EQ(g.csr_pending_delta(), 0u);
  EXPECT_EQ(csr.adjacency().nnz(), 2 * g.num_edges());
  ExpectSameCsr(csr.adjacency(), RebuildFromScratch(g).Csr().adjacency());
}

TEST(DeltaCsr, InsertThenDeleteCancelsToEmptyDelta) {
  Graph g(4, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(2, 3).ok());  // cancels the pending insert
  EXPECT_EQ(g.csr_pending_delta(), 0u);
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());  // cancels the pending remove
  EXPECT_EQ(g.csr_pending_delta(), 0u);
  EXPECT_EQ(g.AdjacencyDeltaView().delta, nullptr);
}

TEST(DeltaCsr, ThresholdTriggersAutoCompaction) {
  obs::ResetMetricsForTest();
  Graph g(64, 1, /*directed=*/true);
  g.set_csr_compaction_threshold(4);
  (void)g.Csr();
  for (VertexId v = 1; v < 8; ++v) ASSERT_TRUE(g.AddEdge(0, v).ok());
  // Threshold 4 means pending can never exceed 4 after a mutation.
  EXPECT_LE(g.csr_pending_delta(), 4u);
  obs::StatsSnapshot snap = obs::Snapshot();
  uint64_t compactions = 0;
  for (const auto& c : snap.counters)
    if (c.name == "graph.delta.compactions") compactions = c.value;
  EXPECT_GE(compactions, 1u);
}

TEST(DeltaCsr, DirectedTransposeViewTracksInDelta) {
  Graph g(5, 1, /*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  g.set_csr_compaction_threshold(1u << 20);
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  DeltaCsrView tr = g.TransposeDeltaView();
  ASSERT_NE(tr.delta, nullptr);
  EXPECT_TRUE(tr.delta->RowDirty(3));   // arc 2->3 dirties transpose row 3
  EXPECT_FALSE(tr.delta->RowDirty(2));
  const CsrGraph& csr = g.Csr();
  ExpectSameCsr(csr.transpose(), RebuildFromScratch(g).Csr().transpose());
}

TEST(DeltaCsr, RemoveEdgeStatuses) {
  Graph g(3, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.RemoveEdge(0, 7).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.RemoveEdge(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.RemoveEdge(0, 2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(g.RemoveEdge(1, 0).ok());  // undirected: either orientation
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.RemoveEdge(0, 1).code(), StatusCode::kNotFound);
}

TEST(DeltaCsr, MutationEpochCountsEverySuccessfulMutation) {
  Graph g(4, 1);
  EXPECT_EQ(g.mutation_epoch(), 0u);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_EQ(g.mutation_epoch(), 2u);
  EXPECT_FALSE(g.AddEdge(0, 1).ok());  // duplicate: no epoch bump
  EXPECT_FALSE(g.RemoveEdge(0, 3).ok());
  EXPECT_EQ(g.mutation_epoch(), 2u);
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_EQ(g.mutation_epoch(), 3u);
}

// A CSR reference hoisted across a mutation is stale; the freshness
// check names it in debug builds (regression for the trainer paths,
// which CheckFreshFor their hoisted snapshots).
TEST(DeltaCsrDeathTest, StaleHoistedViewIsDetected) {
  Graph g(4, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const CsrGraph& hoisted = g.Csr();
  hoisted.CheckFreshFor(g);  // fresh: same epoch
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_DEBUG_DEATH(hoisted.CheckFreshFor(g), "epoch");
}

TEST(DeltaCsr, CopiedGraphCarriesPendingEditsIndependently) {
  Graph g(6, 1);
  g.set_csr_compaction_threshold(1u << 20);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  Graph copy = g;  // shares the immutable base, copies the delta
  ASSERT_TRUE(copy.AddEdge(4, 5).ok());
  EXPECT_FALSE(g.HasEdge(4, 5));
  ExpectSameCsr(copy.Csr().adjacency(),
                RebuildFromScratch(copy).Csr().adjacency());
  ExpectSameCsr(g.Csr().adjacency(),
                RebuildFromScratch(g).Csr().adjacency());
}

// ---------------------------------------------------------------------------
// SpMMDelta unit coverage.

TEST(SpMMDeltaTest, NullAndEmptyDeltaMatchPlainSpMM) {
  Rng rng(23);
  Graph g = RandomLabelledGraph(&rng, 12, false);
  const CsrMatrix& a = g.Csr().adjacency();
  Matrix b = Matrix::RandomUniform(g.num_vertices(), 5, -1.0, 1.0, &rng);
  ExpectBitEqual(SpMMDelta(a, nullptr, b), SpMM(a, b));
  CsrDeltaRows empty;
  empty.Resize(a.rows);
  ExpectBitEqual(SpMMDelta(a, &empty, b), SpMM(a, b));
}

TEST(SpMMDeltaTest, MatchesMergedMatrixBitForBit) {
  Rng rng(29);
  Graph g = RandomLabelledGraph(&rng, 16, true);
  g.set_csr_compaction_threshold(1u << 20);
  (void)g.Csr();
  UpdateLog log = GenerateUpdateLog(g, 25, 0.3, &rng);
  GELC_CHECK_OK(ReplayUpdateLog(log, &g));
  DeltaCsrView view = g.AdjacencyDeltaView();
  ASSERT_NE(view.delta, nullptr);
  CsrMatrix merged = MergeDeltaRows(*view.base, *view.delta);
  Matrix b = Matrix::RandomUniform(g.num_vertices(), 7, -1.0, 1.0, &rng);
  ExpectBitEqual(SpMMDelta(*view.base, view.delta, b), SpMM(merged, b));
}

TEST(SpMMDeltaTest, MergeDeltaRowAppliesAddsAndRemoves) {
  Graph g(5, 1);
  g.set_csr_compaction_threshold(1u << 20);
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 4).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  DeltaCsrView view = g.AdjacencyDeltaView();
  std::vector<uint32_t> row;
  MergeDeltaRow(*view.base, *view.delta, 1, &row);
  EXPECT_EQ(row, (std::vector<uint32_t>{3, 4}));
}

// ---------------------------------------------------------------------------
// Update-log unit coverage (the fuzz round-trip lives in fuzz_test.cc).

TEST(UpdateLogTest, WriterBytesEqualSerializeAndReaderRoundTrips) {
  UpdateLog log;
  log.num_vertices = 9;
  log.directed = true;
  log.ops = {{EdgeOpKind::kInsert, 0, 5},
             {EdgeOpKind::kInsert, 5, 3},
             {EdgeOpKind::kDelete, 0, 5}};
  std::ostringstream out;
  {
    UpdateLogWriter writer(&out, log.num_vertices, log.directed);
    for (const EdgeOp& op : log.ops) writer.Append(op);
    EXPECT_EQ(writer.ops_written(), 3u);
  }
  EXPECT_EQ(out.str(), SerializeUpdateLog(log));
  Result<UpdateLog> parsed = ParseUpdateLog(out.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices, log.num_vertices);
  EXPECT_EQ(parsed->directed, log.directed);
  EXPECT_EQ(parsed->ops, log.ops);
}

TEST(UpdateLogTest, ParseRejectsMalformedLogs) {
  EXPECT_FALSE(ParseUpdateLog("").ok());
  EXPECT_FALSE(ParseUpdateLog("wrongmagic 4 0\n").ok());
  EXPECT_FALSE(ParseUpdateLog("uplog 4 0\nx 0 1\n").ok());   // bad op kind
  EXPECT_FALSE(ParseUpdateLog("uplog 4 0\ni 0 9\n").ok());   // out of range
  EXPECT_FALSE(ParseUpdateLog("uplog 4 0\ni 2 2\n").ok());   // self-loop
  EXPECT_FALSE(ParseUpdateLog("uplog -1 0\n").ok());         // negative n
  EXPECT_FALSE(ParseUpdateLog("uplog 4294967296 0\n").ok()); // n > VertexId
  EXPECT_TRUE(ParseUpdateLog("uplog 4 0\n").ok());           // empty log ok
  EXPECT_TRUE(ParseUpdateLog("uplog 4294967295 0\n").ok());  // largest n
}

TEST(UpdateLogTest, GeneratedOpsAlwaysApplyCleanly) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (bool directed : {false, true}) {
      Rng rng(seed * 101);
      Graph g = RandomLabelledGraph(&rng, 12, directed);
      UpdateLog log = GenerateUpdateLog(g, 60, 0.5, &rng);
      EXPECT_EQ(log.ops.size(), 60u);
      GELC_CHECK_OK(ReplayUpdateLog(log, &g));  // every op must succeed
    }
  }
}

TEST(UpdateLogTest, ReplayBatchesAreSizedAndTouchedIsSortedUnique) {
  Rng rng(77);
  Graph g = RandomLabelledGraph(&rng, 10, false);
  UpdateLog log = GenerateUpdateLog(g, 23, 0.3, &rng);
  ReplayOptions options;
  options.batch_size = 5;
  size_t total_ops = 0;
  size_t batches = 0;
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, [&](const ReplayBatch& b) {
    EXPECT_EQ(b.index, batches);
    ++batches;
    total_ops += b.ops.size();
    EXPECT_LE(b.ops.size(), 5u);
    EXPECT_TRUE(std::is_sorted(b.touched.begin(), b.touched.end()));
    EXPECT_EQ(std::adjacent_find(b.touched.begin(), b.touched.end()),
              b.touched.end());
    for (const EdgeOp& op : b.ops) {
      EXPECT_TRUE(std::binary_search(b.touched.begin(), b.touched.end(),
                                     op.u));
      EXPECT_TRUE(std::binary_search(b.touched.begin(), b.touched.end(),
                                     op.v));
    }
    return Status::OK();
  }));
  EXPECT_EQ(total_ops, log.ops.size());
  EXPECT_EQ(batches, (log.ops.size() + 4) / 5);
}

TEST(UpdateLogTest, ReplayRejectsMismatchedGraph) {
  UpdateLog log;
  log.num_vertices = 4;
  log.directed = false;
  Graph wrong_n(5, 1);
  EXPECT_EQ(ReplayUpdateLog(log, &wrong_n).code(),
            StatusCode::kInvalidArgument);
  Graph wrong_dir(4, 1, /*directed=*/true);
  EXPECT_EQ(ReplayUpdateLog(log, &wrong_dir).code(),
            StatusCode::kInvalidArgument);
}

TEST(UpdateLogTest, CallbackErrorAbortsReplay) {
  Rng rng(31);
  Graph g = RandomLabelledGraph(&rng, 8, false);
  UpdateLog log = GenerateUpdateLog(g, 20, 0.0, &rng);
  ReplayOptions options;
  options.batch_size = 4;
  size_t seen = 0;
  Status s = ReplayUpdateLog(log, &g, options, [&](const ReplayBatch&) {
    return ++seen == 2 ? Status::Internal("stop here") : Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(seen, 2u);
}

// ---------------------------------------------------------------------------
// Incremental refiner unit coverage (the partition contract itself is
// pinned by the differential fuzz above).

TEST(IncrementalRefinerTest, MatchesFromScratchOnConstruction) {
  Rng rng(41);
  Graph g = RandomLabelledGraph(&rng, 20, false);
  IncrementalColorRefiner refiner(&g);
  CrColoring cr = RunColorRefinement({&g});
  EXPECT_EQ(NormalizePartition(refiner.colors()),
            NormalizePartition(cr.stable[0]));
  EXPECT_EQ(refiner.rounds(), cr.rounds);
  EXPECT_EQ(refiner.last_recolored(), 0u);
}

TEST(IncrementalRefinerTest, EmptyBatchIsANoOp) {
  Rng rng(43);
  Graph g = RandomLabelledGraph(&rng, 10, false);
  IncrementalColorRefiner refiner(&g);
  size_t rounds = refiner.rounds();
  refiner.Update({});
  EXPECT_EQ(refiner.last_recolored(), 0u);
  EXPECT_FALSE(refiner.last_was_fallback());
  EXPECT_EQ(refiner.rounds(), rounds);
}

TEST(IncrementalRefinerTest, TinyFallbackFractionForcesRefresh) {
  Rng rng(47);
  Graph g = RandomLabelledGraph(&rng, 16, false);
  IncrementalColorRefiner refiner(
      &g, IncrementalColorRefiner::Options{/*fallback_dirty_fraction=*/0.0});
  VertexId u = 0;
  VertexId v = 1;
  Status s = g.HasEdge(u, v) ? g.RemoveEdge(u, v) : g.AddEdge(u, v);
  GELC_CHECK_OK(s);
  refiner.Update({u, v});
  EXPECT_TRUE(refiner.last_was_fallback());
  CrColoring cr = RunColorRefinement({&g});
  EXPECT_EQ(NormalizePartition(refiner.colors()),
            NormalizePartition(cr.stable[0]));
}

TEST(IncrementalRefinerTest, DirectedUpdateTracksInNeighborFrontier) {
  // A directed path 0->1->2->3->4: inserting 4->0 closes the cycle and
  // changes colors far from the endpoints only through the frontier.
  Graph g(5, 1, /*directed=*/true);
  for (VertexId v = 0; v + 1 < 5; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1).ok());
  for (VertexId v = 0; v < 5; ++v) g.SetOneHotFeature(v, 0);
  IncrementalColorRefiner refiner(&g);
  ASSERT_TRUE(g.AddEdge(4, 0).ok());
  refiner.Update({4, 0});
  CrColoring cr = RunColorRefinement({&g});
  EXPECT_EQ(NormalizePartition(refiner.colors()),
            NormalizePartition(cr.stable[0]));
  EXPECT_EQ(refiner.rounds(), cr.rounds);
  // The cycle is vertex-transitive with uniform labels: one class.
  EXPECT_EQ(refiner.partition_size(), 1u);
}

TEST(IncrementalRefinerTest, PartitionSurvivesLongInterleavedSequence) {
  Rng rng(53);
  Graph g = RandomLabelledGraph(&rng, 18, true);
  IncrementalColorRefiner refiner(&g);
  UpdateLog log = GenerateUpdateLog(g, 80, 0.45, &rng);
  ReplayOptions options;
  options.batch_size = 3;
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, [&](const ReplayBatch& b) {
    refiner.Update(b.touched);
    return Status::OK();
  }));
  CrColoring cr = RunColorRefinement({&g});
  EXPECT_EQ(NormalizePartition(refiner.colors()),
            NormalizePartition(cr.stable[0]));
  EXPECT_EQ(refiner.rounds(), cr.rounds);
  std::vector<uint64_t> distinct = cr.stable[0];
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(refiner.partition_size(), distinct.size());
}

}  // namespace
}  // namespace gelc
