#include "wl/color_refinement.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "base/hash.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// Bitwise hash of a vertex's feature row (exact equality semantics).
std::string FeatureSignature(const Graph& g, size_t v) {
  std::string buf(g.feature_dim() * sizeof(double), '\0');
  for (size_t j = 0; j < g.feature_dim(); ++j) {
    double x = g.features().At(v, j);
    std::memcpy(buf.data() + j * sizeof(double), &x, sizeof(double));
  }
  return buf;
}

size_t CountDistinct(const std::vector<std::vector<uint64_t>>& colorings) {
  std::vector<uint64_t> all;
  for (const auto& c : colorings) all.insert(all.end(), c.begin(), c.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all.size();
}

}  // namespace

std::vector<uint64_t> CrColoring::GraphSignature(size_t g) const {
  GELC_CHECK(g < stable.size());
  std::vector<uint64_t> sig = stable[g];
  std::sort(sig.begin(), sig.end());
  return sig;
}

CrColoring RunColorRefinement(const std::vector<const Graph*>& graphs,
                              int max_rounds) {
  static obs::Counter* runs = obs::GetCounter("wl.cr.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.cr.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.cr.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  static obs::LatencyHistogram* round_series =
      obs::GetLatencyHistogram("wl.round");
  runs->Increment();
  GELC_OBS_SCOPE("wl.cr", {{"graphs", graphs.size()}});
  Interner interner;
  CrColoring out;
  out.stable.resize(graphs.size());

  // Round 0: original labels. Signature bytes are built per shard, then
  // interned in a serial pass over the fixed (g, v) order so color ids are
  // assigned in the same first-seen order as a fully serial run.
  for (size_t g = 0; g < graphs.size(); ++g) {
    size_t n = graphs[g]->num_vertices();
    out.stable[g].resize(n);
    std::vector<std::string> sigs = ParallelMap(
        n, 64, [&](size_t v) { return FeatureSignature(*graphs[g], v); });
    for (size_t v = 0; v < n; ++v)
      out.stable[g][v] = interner.Intern(sigs[v]);
  }
  out.history.push_back(out.stable);

  size_t prev_distinct = CountDistinct(out.stable);
  for (size_t round = 1;; ++round) {
    if (max_rounds >= 0 && round > static_cast<size_t>(max_rounds)) break;
    obs::Scope round_span(round_series, {{"round", round}});
    std::vector<std::vector<uint64_t>> next(graphs.size());
    for (size_t g = 0; g < graphs.size(); ++g) {
      const Graph& graph = *graphs[g];
      size_t n = graph.num_vertices();
      next[g].resize(n);
      // Pass 1 (parallel): per-vertex signature bytes, which depend only
      // on the previous round's colors — shards are independent.
      std::vector<std::string> sigs(n);
      ParallelFor(0, n, 32, [&](size_t vb, size_t ve) {
        std::vector<uint64_t> sig;
        for (size_t v = vb; v < ve; ++v) {
          sig.clear();
          sig.push_back(out.stable[g][v]);
          for (VertexId u : graph.Neighbors(static_cast<VertexId>(v)))
            sig.push_back(out.stable[g][u]);
          std::sort(sig.begin() + 1, sig.end());
          sigs[v] = EncodeWords(sig);
        }
      });
      // Pass 2 (serial, fixed order): deterministic id assignment.
      for (size_t v = 0; v < n; ++v) next[g][v] = interner.Intern(sigs[v]);
    }
    size_t distinct = CountDistinct(next);
    round_span.SetArg("colors", static_cast<int64_t>(distinct));
    rounds_total->Increment();
    out.stable = std::move(next);
    out.history.push_back(out.stable);
    out.rounds = round;
    if (distinct == prev_distinct) break;  // partition stable
    prev_distinct = distinct;
  }
  rounds_hist->Observe(static_cast<int64_t>(out.rounds));
  if (obs::MetricsEnabled()) {  // CountDistinct is not free; skip when off
    obs::GetGauge("wl.cr.colors")->Set(
        static_cast<double>(CountDistinct(out.stable)));
    obs::GetGauge("wl.cr.interner_size")->Set(
        static_cast<double>(interner.size()));
  }
  return out;
}

bool CrEquivalentGraphs(const Graph& a, const Graph& b) {
  CrColoring c = RunColorRefinement({&a, &b});
  return c.GraphSignature(0) == c.GraphSignature(1);
}

bool CrEquivalentVertices(const Graph& a, VertexId u, const Graph& b,
                          VertexId v) {
  CrColoring c = RunColorRefinement({&a, &b});
  return c.stable[0][u] == c.stable[1][v];
}

size_t CrPartitionSize(const Graph& g) {
  CrColoring c = RunColorRefinement({&g});
  std::vector<uint64_t> colors = c.stable[0];
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  return colors.size();
}

}  // namespace gelc
