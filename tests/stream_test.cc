// Differential tests for the streaming layer (DESIGN.md §12): the
// rebuilt-on-read CSR snapshot, update-log replay, and incremental color
// refinement are each pinned against their from-scratch counterparts
// with *exact* equality — the same bit-for-bit contract the
// batch/plan/simd suites use. The headline suite replays 200 random
// interleavings of inserts, deletes and reads, and after every batch
// checks
//
//   * Csr() of the mutated graph == the CsrGraph of a never-mutated
//     rebuild — all three operators' vectors compare equal element for
//     element,
//   * IncrementalColorRefiner == a fresh RunColorRefinement: same
//     vertex partition and same round count,
//
// and at the end that tape SparseMatMul gradients through the mutated
// graph's snapshot == gradients through the never-mutated rebuild's.
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
#include "base/parallel.h"
#include "base/rng.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/update_log.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
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

// A stochastic block model with uniform one-hot labels over `labels`
// classes: the shape of an aging community graph, at test scale.
Graph LabelledSbm(Rng* rng, size_t n, size_t blocks, double p_in,
                  double p_out, size_t labels) {
  const Graph sbm = RandomSbm(n, blocks, p_in, p_out, rng).graph;
  Graph g(n, labels);
  for (VertexId u = 0; u < n; ++u) {
    g.SetOneHotFeature(u, rng->NextBounded(labels));
    for (VertexId v : sbm.Neighbors(u)) {
      if (v > u) {
        EXPECT_TRUE(g.AddEdge(u, v).ok());
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
// Headline differential fuzz: random interleavings of inserts, deletes
// and reads; every observable view stays exactly equal to a from-scratch
// rebuild after every batch.

class StreamDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamDifferentialFuzz, AllViewsMatchFromScratchAfterEveryBatch) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 16987);
  const bool directed = (seed % 2) == 1;
  Graph g = RandomLabelledGraph(&rng, 14, directed);

  // Build the first snapshot, so every read below replaces a stale one.
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

    // (1) Incremental refinement against a from-scratch run: same
    // partition, same round count (ids may differ).
    refiner.Update(batch.touched);
    CrColoring cr = RunColorRefinement({&g});
    EXPECT_EQ(NormalizePartition(refiner.colors()),
              NormalizePartition(cr.stable[0]));
    EXPECT_EQ(refiner.rounds(), cr.rounds);

    // (2) The snapshot Csr() rebuilds from the mutated graph equals a
    // never-mutated graph's, all three operators array for array.
    const CsrGraph& mutated = g.Csr();
    const CsrGraph& rebuilt = fresh.Csr();
    ExpectSameCsr(mutated.adjacency(), rebuilt.adjacency());
    ExpectSameCsr(mutated.transpose(), rebuilt.transpose());
    ExpectSameCsr(mutated.normalized(), rebuilt.normalized());
    mutated.CheckFreshFor(g);  // snapshot is current by construction
    return Status::OK();
  };
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, check_batch));
  EXPECT_GT(batches, 0u);

  // (3) Tape SparseMatMul gradients through the mutated graph's final
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

// 200 interleavings: even seeds undirected, odd directed; batch sizes
// 1..9; every fifth seed runs the refiner with an aggressive fallback
// threshold.
INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 201));

// ---------------------------------------------------------------------------
// CSR snapshot unit coverage: one build path, rebuilt on the first read
// after a mutation.

TEST(CsrSnapshot, MutationsThenOneReadAreOneRebuild) {
  Graph g(8, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  const uint64_t rebuilds = obs::ReadCounter("graph.delta.compactions");
  const uint64_t misses = obs::ReadCounter("graph.csr_cache.misses");
  const uint64_t hits = obs::ReadCounter("graph.csr_cache.hits");
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(5, 6).ok());
  // Mutations build nothing: four of them cost one rebuild at the read.
  EXPECT_EQ(obs::ReadCounter("graph.delta.compactions"), rebuilds);
  const CsrGraph& csr = g.Csr();
  EXPECT_EQ(obs::ReadCounter("graph.delta.compactions") - rebuilds, 1u);
  EXPECT_EQ(obs::ReadCounter("graph.csr_cache.hits"), hits);
  // A second read finds the snapshot current.
  EXPECT_EQ(&g.Csr(), &csr);
  EXPECT_EQ(obs::ReadCounter("graph.csr_cache.hits") - hits, 1u);
  EXPECT_EQ(obs::ReadCounter("graph.delta.compactions") - rebuilds, 1u);
  EXPECT_EQ(obs::ReadCounter("graph.csr_cache.misses"), misses);
  EXPECT_EQ(csr.adjacency().nnz(), 2 * g.num_edges());
  ExpectSameCsr(csr.adjacency(), RebuildFromScratch(g).Csr().adjacency());
}

// A mutation leaves the snapshot alive: a reference hoisted before it
// keeps reading the old structure until the next Csr() replaces it
// (under ASAN a freed snapshot would show as a use after free).
TEST(CsrSnapshot, HoistedReferenceReadsOldSnapshotUntilNextRead) {
  Graph g(5, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const CsrGraph& hoisted = g.Csr();
  const size_t old_nnz = hoisted.adjacency().nnz();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_EQ(hoisted.adjacency().nnz(), old_nnz);
  EXPECT_EQ(hoisted.adjacency().col_indices,
            (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(hoisted.epoch(), 1u);
  const CsrGraph& current = g.Csr();
  EXPECT_EQ(current.epoch(), g.mutation_epoch());
  EXPECT_EQ(current.adjacency().col_indices,
            (std::vector<uint32_t>{3, 2}));
}

TEST(CsrSnapshot, DirectedTransposeMatchesRebuild) {
  Graph g(5, 1, /*directed=*/true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(4, 1).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 2).ok());
  ASSERT_TRUE(g.RemoveEdge(4, 1).ok());
  const CsrGraph& csr = g.Csr();
  const Graph fresh = RebuildFromScratch(g);
  ExpectSameCsr(csr.transpose(), fresh.Csr().transpose());
  ExpectSameCsr(csr.adjacency(), fresh.Csr().adjacency());
  ExpectSameCsr(csr.normalized(), fresh.Csr().normalized());
  EXPECT_EQ(csr.transpose().col_indices,
            (std::vector<uint32_t>{0, 3, 2}));  // in-neighbors of 1, 2, 3
}

// The GCN operator is built on its first read, and plan executions on
// several pool workers can make that read at once: every racing first
// read must return the one operator, equal to a fresh build's.
TEST(CsrSnapshot, ConcurrentFirstNormalizedReadsShareOneBuild) {
  Rng rng(5);
  Graph g = RandomLabelledGraph(&rng, 40, /*directed=*/true);
  const CsrGraph& csr = g.Csr();
  SetParallelThreadCount(4);
  const std::vector<const CsrMatrix*> seen =
      ParallelMap(64, 1, [&csr](size_t) { return &csr.normalized(); });
  SetParallelThreadCount(0);
  for (const CsrMatrix* p : seen) EXPECT_EQ(p, seen[0]);
  ExpectSameCsr(*seen[0], CsrGraph(g).normalized());
}

TEST(CsrSnapshot, InsertThenDeleteStillReadsAtCurrentEpoch) {
  Graph g(4, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const CsrMatrix before = g.Csr().adjacency();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(2, 3).ok());  // the structure is back
  const CsrGraph& csr = g.Csr();
  EXPECT_EQ(csr.epoch(), g.mutation_epoch());
  csr.CheckFreshFor(g);
  ExpectSameCsr(csr.adjacency(), before);
}

TEST(CsrSnapshot, RemoveEdgeStatuses) {
  Graph g(3, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.RemoveEdge(0, 7).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.RemoveEdge(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.RemoveEdge(0, 2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(g.RemoveEdge(1, 0).ok());  // undirected: either orientation
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.RemoveEdge(0, 1).code(), StatusCode::kNotFound);
}

TEST(CsrSnapshot, MutationEpochCountsEverySuccessfulMutation) {
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
TEST(CsrSnapshotDeathTest, StaleHoistedViewIsDetected) {
  Graph g(4, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const CsrGraph& hoisted = g.Csr();
  hoisted.CheckFreshFor(g);  // fresh: same epoch
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_DEBUG_DEATH(hoisted.CheckFreshFor(g), "epoch");
}

TEST(CsrSnapshot, CopiedGraphCarriesPendingEditsIndependently) {
  Graph g(6, 1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  (void)g.Csr();
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  Graph copy = g;  // shares the stale snapshot until either one reads
  ASSERT_TRUE(copy.AddEdge(4, 5).ok());
  EXPECT_FALSE(g.HasEdge(4, 5));
  ExpectSameCsr(copy.Csr().adjacency(),
                RebuildFromScratch(copy).Csr().adjacency());
  ExpectSameCsr(g.Csr().adjacency(),
                RebuildFromScratch(g).Csr().adjacency());
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

// Memory follows the live classes: after every Update of a long aging
// replay, the round tables hold exactly as many signatures as the rounds
// of a from-scratch refinement have distinct colors, whatever the
// tables held before. Every batch is patched (no fallback), and with 4
// labels the fixpoint moves among rounds 3, 4 and 5, so rounds are both
// extended and truncated.
TEST(IncrementalRefinerTest, TablesHoldExactlyTheLiveClasses) {
  Rng rng(59);
  Graph g = LabelledSbm(&rng, 512, 32, 0.25, 0.00025, 4);
  IncrementalColorRefiner refiner(
      &g, IncrementalColorRefiner::Options{/*fallback_dirty_fraction=*/1.0});
  UpdateLog log = GenerateUpdateLog(g, /*num_ops=*/3000,
                                    /*delete_fraction=*/0.5, &rng);
  ReplayOptions options;
  options.batch_size = 5;
  size_t batches = 0;
  size_t round_changes = 0;
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, [&](const ReplayBatch& b) {
    ++batches;
    const size_t rounds_before = refiner.rounds();
    refiner.Update(b.touched);
    EXPECT_FALSE(refiner.last_was_fallback());
    round_changes += refiner.rounds() != rounds_before;
    CrColoring cr = RunColorRefinement({&g});
    size_t live = 0;
    for (const Colorings& round : cr.history) live += CountDistinct(round);
    EXPECT_EQ(refiner.interned(), live) << "batch " << batches;
    EXPECT_EQ(refiner.rounds(), cr.rounds) << "batch " << batches;
    return Status::OK();
  }));
  EXPECT_EQ(batches, 600u);
  EXPECT_GE(round_changes, 10u);
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
