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
  // One shared-loop round at a time, each into a fresh table, under
  // RunColorRefinement's stop rule: a round that leaves the distinct
  // count unchanged is the last.
  do {
    Colorings colors = {history_.back()};
    tables_.emplace_back();
    RefineCr({g_}, /*max_rounds=*/1, &tables_.back(), &colors, nullptr);
    history_.push_back(std::move(colors[0]));
    RecountRound(history_.size() - 1);
  } while (tables_.back().size() != tables_[tables_.size() - 2].size());
}

void IncrementalColorRefiner::RecountRound(size_t r) {
  if (counts_.size() <= r) counts_.resize(r + 1);
  counts_[r].assign(tables_[r].size(), 0);
  for (uint64_t c : history_[r]) ++counts_[r][c];
}

size_t IncrementalColorRefiner::interned() const {
  size_t total = 0;
  for (const Interner& table : tables_) total += table.size();
  return total;
}

void IncrementalColorRefiner::Refresh() {
  static obs::Counter* refreshes = obs::GetCounter("wl.cr.inc.refreshes");
  refreshes->Increment();
  GELC_OBS_SCOPE("wl.cr.inc.refresh", {{"n", g_->num_vertices()}});
  history_.clear();
  tables_.clear();
  counts_.clear();
  last_recolored_ = 0;

  tables_.emplace_back();
  history_.push_back(InternFeatureRows(g_->features(), &tables_[0]));
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
    Interner& table = tables_[r];
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
        &table, &ids);
    std::vector<uint32_t>& counts = counts_[r];
    std::vector<VertexId> dirty_next;
    std::vector<uint64_t> emptied;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const VertexId v = candidates[i];
      const uint64_t id = ids[i];
      uint64_t& slot = history_[r][v];
      if (id == slot) continue;
      if (id >= counts.size()) counts.resize(id + 1, 0);
      // Only vertices that held a class when the pass began can leave
      // it, so a class empties at most once per pass.
      if (--counts[slot] == 0) emptied.push_back(slot);
      ++counts[id];
      slot = id;
      dirty_next.push_back(v);
      ++recolored;
    }
    // A later candidate may have interned an emptied class's signature
    // (its id was assigned before the loop above), so erase only what is
    // still empty now that the whole round is patched.
    for (uint64_t id : emptied) {
      if (counts[id] == 0) table.Erase(id);
    }
    dirty_prev = std::move(dirty_next);
    if (table.size() == tables_[r - 1].size()) break;
  }
  if (r < history_.size()) {
    // The partition is stable at round r — exactly the from-scratch stop
    // rule. Later stored rounds (if any) are now meaningless.
    history_.resize(r + 1);
    tables_.resize(r + 1);
    counts_.resize(r + 1);
  } else {
    // It keeps refining past the old fixpoint: the remaining rounds are
    // exactly the from-scratch ones.
    ExtendToFixpoint();
  }
  last_recolored_ = recolored;
  recolored_ctr->Add(recolored);
}

}  // namespace gelc
