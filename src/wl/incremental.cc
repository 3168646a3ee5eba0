#include "wl/incremental.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// Bitwise hash of a vertex's feature row — byte-identical to the
// round-0 signature in color_refinement.cc (exact equality semantics).
std::string FeatureSignature(const Graph& g, size_t v) {
  std::string buf(g.feature_dim() * sizeof(double), '\0');
  for (size_t j = 0; j < g.feature_dim(); ++j) {
    double x = g.features().At(v, j);
    std::memcpy(buf.data() + j * sizeof(double), &x, sizeof(double));
  }
  return buf;
}

// Round-r signature bytes of v from the previous round's colors: own
// color first, then the out-neighbors' colors sorted — the same word
// layout RunColorRefinement interns.
std::string RoundSignature(const Graph& g, const std::vector<uint64_t>& prev,
                           size_t v) {
  std::vector<uint64_t> sig;
  sig.reserve(1 + g.OutDegree(static_cast<VertexId>(v)));
  sig.push_back(prev[v]);
  for (VertexId u : g.Neighbors(static_cast<VertexId>(v)))
    sig.push_back(prev[u]);
  std::sort(sig.begin() + 1, sig.end());
  return EncodeWords(sig);
}

}  // namespace

IncrementalColorRefiner::IncrementalColorRefiner(const Graph* g)
    : IncrementalColorRefiner(g, Options()) {}

IncrementalColorRefiner::IncrementalColorRefiner(const Graph* g,
                                                 const Options& options)
    : g_(g), options_(options) {
  GELC_CHECK(g_ != nullptr);
  Refresh();
}

std::vector<uint64_t> IncrementalColorRefiner::FullRound(
    const std::vector<uint64_t>& prev) {
  const size_t n = g_->num_vertices();
  std::vector<std::string> sigs(n);
  ParallelFor(0, n, 32, [&](size_t vb, size_t ve) {
    for (size_t v = vb; v < ve; ++v) sigs[v] = RoundSignature(*g_, prev, v);
  });
  std::vector<uint64_t> next(n);
  for (size_t v = 0; v < n; ++v) next[v] = interner_.Intern(sigs[v]);
  return next;
}

void IncrementalColorRefiner::RecountRound(size_t r) {
  if (class_counts_.size() <= r) class_counts_.resize(r + 1);
  if (distinct_.size() <= r) distinct_.resize(r + 1);
  class_counts_[r].clear();
  for (uint64_t c : history_[r]) ++class_counts_[r][c];
  distinct_[r] = class_counts_[r].size();
}

void IncrementalColorRefiner::Refresh() {
  static obs::Counter* refreshes = obs::GetCounter("wl.cr.inc.refreshes");
  refreshes->Increment();
  GELC_OBS_SCOPE("wl.cr.inc.refresh", {{"n", g_->num_vertices()}});
  interner_ = Interner();
  history_.clear();
  class_counts_.clear();
  distinct_.clear();
  last_recolored_ = 0;

  const size_t n = g_->num_vertices();
  std::vector<std::string> sigs =
      ParallelMap(n, 64, [&](size_t v) { return FeatureSignature(*g_, v); });
  std::vector<uint64_t> colors(n);
  for (size_t v = 0; v < n; ++v) colors[v] = interner_.Intern(sigs[v]);
  history_.push_back(std::move(colors));
  RecountRound(0);

  // Same loop shape and stop rule as RunColorRefinement: compute the
  // round, record it, stop once the distinct count stops growing.
  for (size_t r = 1;; ++r) {
    history_.push_back(FullRound(history_[r - 1]));
    RecountRound(r);
    if (distinct_[r] == distinct_[r - 1]) break;
  }
}

void IncrementalColorRefiner::Update(const std::vector<VertexId>& touched) {
  static obs::Counter* updates = obs::GetCounter("wl.cr.inc.updates");
  static obs::Counter* fallbacks = obs::GetCounter("wl.cr.inc.fallbacks");
  static obs::Counter* recolored_ctr = obs::GetCounter("wl.cr.inc.recolored");
  static obs::Counter* saved = obs::GetCounter("wl.cr.inc.saved");
  static obs::Histogram* dirty_hist = obs::GetHistogram(
      "stream.dirty_set_size", {1, 4, 16, 64, 256, 1024, 4096});
  updates->Increment();
  last_was_fallback_ = false;
  const size_t n = g_->num_vertices();
  if (touched.empty() || n == 0) {
    last_recolored_ = 0;
    return;
  }
  GELC_OBS_SCOPE("wl.cr.inc.update", {{"touched", touched.size()}});

  // Round 0 depends only on features, so edge batches never dirty it;
  // the batch endpoints seed round 1's candidate set.
  std::vector<VertexId> endpoints(touched);
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  for (VertexId v : endpoints) GELC_CHECK(v < n);

  const auto fallback_cap = static_cast<size_t>(
      options_.fallback_dirty_fraction * static_cast<double>(n));
  size_t recolored = 0;
  std::vector<VertexId> dirty_prev;  // dirty set of round r-1
  std::vector<uint8_t> marked(n, 0);
  std::vector<VertexId> candidates;
  std::vector<std::string> sigs;

  for (size_t r = 1;; ++r) {
    if (r >= history_.size()) {
      // The partition keeps refining past the old fixpoint: compute the
      // whole round exactly as a from-scratch run would.
      history_.push_back(FullRound(history_[r - 1]));
      RecountRound(r);
    } else {
      // candidates_r = endpoints ∪ dirty_{r-1} ∪ InNeighbors(dirty_{r-1}):
      // everything whose round-r signature can differ from the stored one.
      candidates.clear();
      auto mark = [&](VertexId v) {
        if (!marked[v]) {
          marked[v] = 1;
          candidates.push_back(v);
        }
      };
      for (VertexId v : endpoints) mark(v);
      for (VertexId u : dirty_prev) {
        mark(u);
        for (VertexId w : g_->InNeighbors(u)) mark(w);
      }
      std::sort(candidates.begin(), candidates.end());
      for (VertexId v : candidates) marked[v] = 0;
      if (candidates.size() > fallback_cap) {
        fallbacks->Increment();
        last_was_fallback_ = true;
        Refresh();
        return;
      }
      dirty_hist->Observe(static_cast<int64_t>(candidates.size()));
      saved->Add(n - candidates.size());

      // Pass 1 (parallel): signature bytes from the already-patched
      // round r-1 colors. Pass 2 (serial, ascending vertex order):
      // deterministic intern + in-place patch of round r.
      sigs.resize(candidates.size());
      ParallelFor(0, candidates.size(), 32, [&](size_t cb, size_t ce) {
        for (size_t i = cb; i < ce; ++i)
          sigs[i] = RoundSignature(*g_, history_[r - 1], candidates[i]);
      });
      std::vector<VertexId> dirty_next;
      for (size_t i = 0; i < candidates.size(); ++i) {
        const VertexId v = candidates[i];
        const uint64_t id = interner_.Intern(sigs[i]);
        uint64_t& slot = history_[r][v];
        if (id == slot) continue;
        auto it = class_counts_[r].find(slot);
        if (--it->second == 0) class_counts_[r].erase(it);
        ++class_counts_[r][id];
        slot = id;
        dirty_next.push_back(v);
        ++recolored;
      }
      distinct_[r] = class_counts_[r].size();
      dirty_prev = std::move(dirty_next);
    }
    if (distinct_[r] == distinct_[r - 1]) {
      // The partition is stable at round r — exactly the from-scratch
      // stop rule. Later stored rounds (if any) are now meaningless.
      history_.resize(r + 1);
      class_counts_.resize(r + 1);
      distinct_.resize(r + 1);
      break;
    }
  }
  last_recolored_ = recolored;
  recolored_ctr->Add(recolored);
}

}  // namespace gelc
