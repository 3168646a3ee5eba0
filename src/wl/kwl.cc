#include "wl/kwl.h"

#include <algorithm>
#include <string>

#include "base/hash.h"
#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wl/color_refinement.h"

namespace gelc {

namespace {

// Decodes tuple index t (mixed radix base n) into vertex ids, most
// significant position first.
void DecodeTuple(size_t t, size_t n, size_t k, std::vector<size_t>* tuple) {
  tuple->resize(k);
  for (size_t i = k; i-- > 0;) {
    (*tuple)[i] = t % n;
    t /= n;
  }
}

// Index strides for substituting position j: replacing v_j by w changes
// the tuple index by (w - v_j) * n^{k-1-j}.
std::vector<size_t> Strides(size_t n, size_t k) {
  std::vector<size_t> stride(k, 1);
  for (size_t j = k; j-- > 1;) stride[j - 1] = stride[j] * n;
  return stride;
}

// Atomic type of an ordered k-tuple: per-position feature colors plus the
// full equality and adjacency patterns.
void AtomicTypeWords(const Graph& g, const std::vector<size_t>& tuple,
                     const std::vector<uint64_t>& feature_colors,
                     std::vector<uint64_t>* words) {
  words->clear();
  size_t k = tuple.size();
  for (size_t i = 0; i < k; ++i) words->push_back(feature_colors[tuple[i]]);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      uint64_t bits = 0;
      if (tuple[i] == tuple[j]) bits |= 1;
      if (i != j && g.HasEdge(static_cast<VertexId>(tuple[i]),
                              static_cast<VertexId>(tuple[j])))
        bits |= 2;
      words->push_back(bits);
    }
  }
}

size_t PowN(size_t n, size_t k) {
  size_t r = 1;
  for (size_t i = 0; i < k; ++i) r *= n;
  return r;
}

// Guards against runaway table sizes (n^k tuples per graph).
Status CheckTableSizes(const std::vector<const Graph*>& graphs, size_t k) {
  for (const Graph* g : graphs) {
    if (PowN(g->num_vertices(), k) > 2'000'000) {
      return Status::OutOfRange("k-WL tuple table too large (n^k > 2e6)");
    }
  }
  return Status::OK();
}

// Writes the round signatures of tuples [begin, end) of a graph on n
// vertices, from its previous-round tuple colors `prev`.
using TupleSignFn = void (*)(size_t n, size_t k,
                             const std::vector<uint64_t>& prev, size_t begin,
                             size_t end, std::string* sigs);

// Folklore: [old color | sorted list of the n substituted k-vectors].
// Sorting the raw k-vectors, rather than interning each to an id first,
// keeps the bytes independent of interner state, so every shard schedule
// and thread count produces the same signature.
void SignFolklore(size_t n, size_t k, const std::vector<uint64_t>& prev,
                  size_t begin, size_t end, std::string* sigs) {
  const std::vector<size_t> stride = Strides(n, k);
  std::vector<size_t> tuple;
  std::vector<std::vector<uint64_t>> wvecs(n, std::vector<uint64_t>(k));
  std::vector<uint64_t> sig;
  for (size_t t = begin; t < end; ++t) {
    DecodeTuple(t, n, k, &tuple);
    for (size_t w = 0; w < n; ++w)
      for (size_t j = 0; j < k; ++j)
        wvecs[w][j] = prev[t + (w - tuple[j]) * stride[j]];
    std::sort(wvecs.begin(), wvecs.end());
    sig.clear();
    sig.reserve(1 + n * k);
    sig.push_back(prev[t]);
    for (const auto& wv : wvecs) sig.insert(sig.end(), wv.begin(), wv.end());
    sigs[t - begin] = EncodeWords(sig);
  }
}

// Oblivious: per position, the SORTED multiset over w of the single
// substituted color, embedded raw (interner-independent, as above).
void SignOblivious(size_t n, size_t k, const std::vector<uint64_t>& prev,
                   size_t begin, size_t end, std::string* sigs) {
  const std::vector<size_t> stride = Strides(n, k);
  std::vector<size_t> tuple;
  std::vector<uint64_t> sig;
  for (size_t t = begin; t < end; ++t) {
    DecodeTuple(t, n, k, &tuple);
    sig.clear();
    sig.reserve(1 + k * n);
    sig.push_back(prev[t]);
    for (size_t j = 0; j < k; ++j) {
      size_t head = sig.size();
      for (size_t w = 0; w < n; ++w)
        sig.push_back(prev[t + (w - tuple[j]) * stride[j]]);
      std::sort(sig.begin() + static_cast<ptrdiff_t>(head), sig.end());
    }
    sigs[t - begin] = EncodeWords(sig);
  }
}

// Both variants: round 0 interns each graph's feature colors, then its
// tuples' atomic types; the shared loop then refines with `sign`.
KwlColoring RefineTuples(const std::vector<const Graph*>& graphs, size_t k,
                         int max_rounds, TupleSignFn sign,
                         Interner* interner) {
  KwlColoring out;
  out.k = k;
  for (const Graph* graph : graphs) {
    const size_t n = graph->num_vertices();
    const std::vector<uint64_t> feature_colors =
        InternFeatureRows(graph->features(), interner);
    std::vector<uint64_t>& types = out.stable.emplace_back(PowN(n, k));
    InternSignatures(
        128,
        [&](size_t begin, size_t end, std::string* sigs) {
          std::vector<size_t> tuple;
          std::vector<uint64_t> words;
          for (size_t t = begin; t < end; ++t) {
            DecodeTuple(t, n, k, &tuple);
            AtomicTypeWords(*graph, tuple, feature_colors, &words);
            sigs[t - begin] = EncodeWords(words);
          }
        },
        interner, &types);
  }
  out.rounds = Refine(
      [&](size_t g, const std::vector<uint64_t>& prev, size_t begin,
          size_t end, std::string* sigs) {
        sign(graphs[g]->num_vertices(), k, prev, begin, end, sigs);
      },
      64, max_rounds, interner, &out.stable, nullptr);
  return out;
}

}  // namespace

uint64_t KwlColoring::TupleColor(size_t g, const std::vector<VertexId>& tuple,
                                 size_t n) const {
  GELC_CHECK(tuple.size() == k);
  size_t idx = 0;
  for (VertexId v : tuple) {
    GELC_CHECK(v < n);
    idx = idx * n + v;
  }
  return stable[g][idx];
}

Result<KwlColoring> RunKwl(const std::vector<const Graph*>& graphs, size_t k,
                           int max_rounds) {
  if (k == 0 || k > 4) {
    return Status::InvalidArgument("k-WL supports k in [1, 4]");
  }
  if (k == 1) {
    // Conventional identification: 1-WL == color refinement.
    CrColoring cr = RunColorRefinement(graphs, max_rounds);
    KwlColoring out;
    out.k = 1;
    out.stable = std::move(cr.stable);
    out.rounds = cr.rounds;
    return out;
  }
  GELC_RETURN_NOT_OK(CheckTableSizes(graphs, k));

  static obs::Counter* runs = obs::GetCounter("wl.kwl.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.kwl.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.kwl.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  runs->Increment();
  GELC_OBS_SCOPE("wl.kwl", {{"k", k}, {"graphs", graphs.size()}});
  Interner interner;
  KwlColoring out = RefineTuples(graphs, k, max_rounds, SignFolklore,
                                 &interner);
  rounds_total->Add(out.rounds);
  rounds_hist->Observe(static_cast<int64_t>(out.rounds));
  if (obs::MetricsEnabled()) {  // CountDistinct is not free; skip when off
    obs::GetGauge("wl.kwl.colors")->Set(
        static_cast<double>(CountDistinct(out.stable)));
    obs::GetGauge("wl.kwl.interner_size")->Set(
        static_cast<double>(interner.size()));
  }
  return out;
}

Result<KwlColoring> RunObliviousKwl(const std::vector<const Graph*>& graphs,
                                    size_t k, int max_rounds) {
  if (k == 0 || k > 4) {
    return Status::InvalidArgument("oblivious k-WL supports k in [1, 4]");
  }
  GELC_RETURN_NOT_OK(CheckTableSizes(graphs, k));

  static obs::Counter* runs = obs::GetCounter("wl.oblivious_kwl.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.oblivious_kwl.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.oblivious_kwl.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  runs->Increment();
  GELC_OBS_SCOPE("wl.oblivious_kwl", {{"k", k}, {"graphs", graphs.size()}});
  Interner interner;
  KwlColoring out = RefineTuples(graphs, k, max_rounds, SignOblivious,
                                 &interner);
  rounds_total->Add(out.rounds);
  rounds_hist->Observe(static_cast<int64_t>(out.rounds));
  return out;
}

Result<bool> ObliviousKwlEquivalentGraphs(const Graph& a, const Graph& b,
                                          size_t k) {
  GELC_ASSIGN_OR_RETURN(KwlColoring c, RunObliviousKwl({&a, &b}, k));
  return c.GraphSignature(0) == c.GraphSignature(1);
}

Result<bool> KwlEquivalentGraphs(const Graph& a, const Graph& b, size_t k) {
  GELC_ASSIGN_OR_RETURN(KwlColoring c, RunKwl({&a, &b}, k));
  return c.GraphSignature(0) == c.GraphSignature(1);
}

Result<size_t> MinimalSeparatingK(const Graph& a, const Graph& b,
                                  size_t k_max) {
  for (size_t k = 1; k <= k_max; ++k) {
    GELC_ASSIGN_OR_RETURN(bool equivalent, KwlEquivalentGraphs(a, b, k));
    if (!equivalent) return k;
  }
  return size_t{0};
}

}  // namespace gelc
