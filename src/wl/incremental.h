// Incremental color refinement over a mutating graph (DESIGN.md §12).
//
// Color refinement is a fixpoint computation whose round-r color of v
// depends only on round r-1 colors of v and its out-neighbors — so an
// edge batch can only change colors inside the batch endpoints'
// expanding neighborhood. IncrementalColorRefiner keeps the full
// per-round color history of its graph and, on an update batch, patches
// just that frontier:
//
//   candidates_r = touched ∪ dirty_{r-1} ∪ InNeighbors(dirty_{r-1})
//
// where `touched` (the batch endpoints) stays in every round — their
// adjacency changed permanently, so their signature at *every* round
// must be recomputed — and dirty_{r-1} is the set of vertices whose
// round r-1 color actually changed. Rounds where the partition keeps
// refining past the previously stored fixpoint are computed in full
// (exactly the from-scratch round), and a batch whose candidate set
// exceeds `fallback_dirty_fraction` of the graph falls back to a full
// Refresh — past that point patching costs more than recomputing.
//
// Contract (pinned by tests/stream_test.cc at threads 1 and 4): after
// any Refresh/Update sequence, colors() induces the same partition of
// the vertex set, with the same stable-round count, as a from-scratch
// RunColorRefinement({&g}) on the current graph. Ids themselves may
// differ (the persistent interner assigns them in patch order); the
// partition and the round count are the invariants. Refresh and the
// full rounds past the old fixpoint run the shared loop of wl/refine.h;
// the patch pass signs candidates in parallel and interns them serially
// in ascending order, so results are bit-identical at any thread count.
#ifndef GELC_WL_INCREMENTAL_H_
#define GELC_WL_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "graph/graph.h"

namespace gelc {

class IncrementalColorRefiner {
 public:
  struct Options {
    /// Fall back to a full Refresh when a round's candidate set exceeds
    /// this fraction of the vertex set.
    double fallback_dirty_fraction = 0.25;
  };

  explicit IncrementalColorRefiner(const Graph* g);
  IncrementalColorRefiner(const Graph* g, const Options& options);

  /// Recomputes the full color history from scratch (also resets the
  /// interner). Called by the constructor and by Update's fallback path.
  void Refresh();

  /// Patches the color history after a mutation batch. `touched` must
  /// contain every endpoint of every edge inserted or removed since the
  /// previous Update/Refresh (the replayer's ReplayBatch::touched is
  /// exactly this set); order and duplicates are fine.
  void Update(const std::vector<VertexId>& touched);

  /// Stable colors of the current graph (the last round's coloring).
  const std::vector<uint64_t>& colors() const { return history_.back(); }
  /// Rounds until stability, matching RunColorRefinement's count.
  size_t rounds() const { return history_.size() - 1; }
  /// Number of distinct stable colors (the CR partition size).
  size_t partition_size() const { return distinct_.back(); }

  /// Vertices recolored by the most recent Update (0 after Refresh).
  size_t last_recolored() const { return last_recolored_; }
  /// True when the most recent Update took the full-Refresh fallback.
  bool last_was_fallback() const { return last_was_fallback_; }

 private:
  // Runs full rounds from the last stored one until the partition is
  // stable, appending them to the history (Refresh, and Update once the
  // partition refines past the stored fixpoint).
  void ExtendToFixpoint();
  // Rebuilds class_counts_[r]/distinct_[r] from history_[r].
  void RecountRound(size_t r);

  const Graph* g_;
  Options options_;
  Interner interner_;
  // history_[r][v] = color of v after round r; round 0 = feature colors.
  std::vector<std::vector<uint64_t>> history_;
  // class_counts_[r][color] = how many vertices carry `color` at round r
  // (maintained incrementally; its size is the round's distinct count).
  std::vector<std::unordered_map<uint64_t, uint32_t>> class_counts_;
  std::vector<size_t> distinct_;
  size_t last_recolored_ = 0;
  bool last_was_fallback_ = false;
};

}  // namespace gelc

#endif  // GELC_WL_INCREMENTAL_H_
