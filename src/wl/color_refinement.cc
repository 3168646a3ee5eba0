#include "wl/color_refinement.h"

#include <algorithm>

#include "base/logging.h"
#include "graph/relational.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

std::string CrSignature(const Graph& g, const std::vector<uint64_t>& prev,
                        VertexId v, std::vector<uint64_t>* words) {
  words->clear();
  words->push_back(prev[v]);
  for (VertexId u : g.Neighbors(v)) words->push_back(prev[u]);
  std::sort(words->begin() + 1, words->end());
  return EncodeWords(*words);
}

size_t RefineCr(const std::vector<const Graph*>& graphs, int max_rounds,
                Interner* interner, Colorings* colors,
                std::vector<Colorings>* history) {
  return Refine(
      [&](size_t g, const std::vector<uint64_t>& prev, size_t begin,
          size_t end, std::string* sigs) {
        std::vector<uint64_t> words;
        for (size_t v = begin; v < end; ++v) {
          sigs[v - begin] = CrSignature(*graphs[g], prev,
                                        static_cast<VertexId>(v), &words);
        }
      },
      32, max_rounds, interner, colors, history);
}

CrColoring RunColorRefinement(const std::vector<const Graph*>& graphs,
                              int max_rounds) {
  static obs::Counter* runs = obs::GetCounter("wl.cr.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.cr.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.cr.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  runs->Increment();
  GELC_OBS_SCOPE("wl.cr", {{"graphs", graphs.size()}});
  Interner interner;
  CrColoring out;
  for (const Graph* g : graphs)
    out.stable.push_back(InternFeatureRows(g->features(), &interner));
  out.history.push_back(out.stable);
  out.rounds = RefineCr(graphs, max_rounds, &interner, &out.stable,
                        &out.history);
  rounds_total->Add(out.rounds);
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
  return CountDistinct(RunColorRefinement({&g}).stable);
}

CrColoring RunRelationalColorRefinement(
    const std::vector<const RelationalGraph*>& graphs, int max_rounds) {
  Interner interner;
  CrColoring out;
  for (const RelationalGraph* g : graphs)
    out.stable.push_back(InternFeatureRows(g->features(), &interner));
  out.history.push_back(out.stable);
  out.rounds = Refine(
      [&](size_t g, const std::vector<uint64_t>& prev, size_t begin,
          size_t end, std::string* sigs) {
        const RelationalGraph& graph = *graphs[g];
        std::vector<uint64_t> words;
        for (size_t v = begin; v < end; ++v) {
          words.assign(1, prev[v]);
          for (size_t r = 0; r < graph.num_relations(); ++r) {
            words.push_back(~uint64_t{0});  // relation separator
            const size_t head = words.size();
            for (VertexId u : graph.Neighbors(r, static_cast<VertexId>(v)))
              words.push_back(prev[u]);
            std::sort(words.begin() + static_cast<ptrdiff_t>(head),
                      words.end());
          }
          sigs[v - begin] = EncodeWords(words);
        }
      },
      32, max_rounds, &interner, &out.stable, &out.history);
  return out;
}

bool RelationalCrEquivalent(const RelationalGraph& a,
                            const RelationalGraph& b) {
  CrColoring c = RunRelationalColorRefinement({&a, &b});
  return c.GraphSignature(0) == c.GraphSignature(1);
}

}  // namespace gelc
