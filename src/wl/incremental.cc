#include "wl/incremental.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wl/color_refinement.h"

namespace gelc {

IncrementalColorRefiner::IncrementalColorRefiner(const Graph* g)
    : IncrementalColorRefiner(g, Options()) {}

IncrementalColorRefiner::IncrementalColorRefiner(const Graph* g,
                                                 const Options& options)
    : g_(g), options_(options) {
  GELC_CHECK(g_ != nullptr);
  Refresh();
}

void IncrementalColorRefiner::ExtendToFixpoint() {
  Colorings colors = {history_.back()};
  std::vector<Colorings> rounds;
  RefineCr({g_}, /*max_rounds=*/-1, &interner_, &colors, &rounds);
  for (Colorings& round : rounds) {
    history_.push_back(std::move(round[0]));
    RecountRound(history_.size() - 1);
  }
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

  history_.push_back(InternFeatureRows(g_->features(), &interner_));
  RecountRound(0);
  ExtendToFixpoint();
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

  size_t r = 1;
  for (; r < history_.size(); ++r) {
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

    // Re-sign the candidates from the already-patched round r-1 colors,
    // interned in ascending vertex order, then patch round r in place.
    std::vector<uint64_t> ids(candidates.size());
    InternSignatures(
        32,
        [&](size_t begin, size_t end, std::string* sigs) {
          std::vector<uint64_t> words;
          for (size_t i = begin; i < end; ++i) {
            sigs[i - begin] =
                CrSignature(*g_, history_[r - 1], candidates[i], &words);
          }
        },
        &interner_, &ids);
    std::vector<VertexId> dirty_next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const VertexId v = candidates[i];
      const uint64_t id = ids[i];
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
    if (distinct_[r] == distinct_[r - 1]) break;
  }
  if (r < history_.size()) {
    // The partition is stable at round r — exactly the from-scratch stop
    // rule. Later stored rounds (if any) are now meaningless.
    history_.resize(r + 1);
    class_counts_.resize(r + 1);
    distinct_.resize(r + 1);
  } else {
    // It keeps refining past the old fixpoint: the remaining rounds are
    // exactly the from-scratch ones.
    ExtendToFixpoint();
  }
  last_recolored_ = recolored;
  recolored_ctr->Add(recolored);
}

}  // namespace gelc
