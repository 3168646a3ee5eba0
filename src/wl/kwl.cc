#include "wl/kwl.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "base/hash.h"
#include "base/logging.h"
#include "base/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wl/color_refinement.h"

namespace gelc {

namespace {

// Tuples per block when recoloring the n^k tuple space: signature bytes
// for one block are built in parallel shards, then interned serially in
// tuple order. Blocking bounds the materialized signatures regardless of
// table size; the fixed block size keeps the schedule deterministic.
constexpr size_t kTupleBlock = size_t{1} << 15;

// Decodes tuple index t (mixed radix base n) into vertex ids, most
// significant position first.
void DecodeTuple(size_t t, size_t n, size_t k, std::vector<size_t>* tuple) {
  tuple->resize(k);
  for (size_t i = k; i-- > 0;) {
    (*tuple)[i] = t % n;
    t /= n;
  }
}

std::string FeatureSignature(const Graph& g, size_t v) {
  std::string buf(g.feature_dim() * sizeof(double), '\0');
  for (size_t j = 0; j < g.feature_dim(); ++j) {
    double x = g.features().At(v, j);
    std::memcpy(buf.data() + j * sizeof(double), &x, sizeof(double));
  }
  return buf;
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

// Initializes stable[g] with interned atomic types: signature bytes per
// block in parallel, ids assigned serially in tuple order (first-seen
// order identical to a serial run).
void InitAtomicTypes(const Graph& graph, size_t k, Interner* interner,
                     std::vector<uint64_t>* stable) {
  size_t n = graph.num_vertices();
  std::vector<uint64_t> feature_colors(n);
  {
    std::vector<std::string> fsigs = ParallelMap(
        n, 64, [&](size_t v) { return FeatureSignature(graph, v); });
    for (size_t v = 0; v < n; ++v)
      feature_colors[v] = interner->Intern(fsigs[v]);
  }
  size_t tuples = stable->size();
  std::vector<std::string> sigs;
  for (size_t block = 0; block < tuples; block += kTupleBlock) {
    size_t block_end = std::min(tuples, block + kTupleBlock);
    sigs.resize(block_end - block);
    ParallelFor(block, block_end, 128, [&](size_t tb, size_t te) {
      std::vector<size_t> tuple;
      std::vector<uint64_t> words;
      for (size_t t = tb; t < te; ++t) {
        DecodeTuple(t, n, k, &tuple);
        AtomicTypeWords(graph, tuple, feature_colors, &words);
        sigs[t - block] = EncodeWords(words);
      }
    });
    for (size_t t = block; t < block_end; ++t)
      (*stable)[t] = interner->Intern(sigs[t - block]);
  }
}

size_t CountDistinct(const std::vector<std::vector<uint64_t>>& colorings) {
  std::vector<uint64_t> all;
  for (const auto& c : colorings) all.insert(all.end(), c.begin(), c.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all.size();
}

size_t PowN(size_t n, size_t k) {
  size_t r = 1;
  for (size_t i = 0; i < k; ++i) r *= n;
  return r;
}

}  // namespace

std::vector<uint64_t> KwlColoring::GraphSignature(size_t g) const {
  GELC_CHECK(g < stable.size());
  std::vector<uint64_t> sig = stable[g];
  std::sort(sig.begin(), sig.end());
  return sig;
}

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
  // Guard against runaway table sizes (n^k tuples per graph).
  for (const Graph* g : graphs) {
    size_t tuples = PowN(g->num_vertices(), k);
    if (tuples > 2'000'000) {
      return Status::OutOfRange("k-WL tuple table too large (n^k > 2e6)");
    }
  }

  static obs::Counter* runs = obs::GetCounter("wl.kwl.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.kwl.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.kwl.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  static obs::LatencyHistogram* round_series =
      obs::GetLatencyHistogram("wl.round");
  runs->Increment();
  GELC_OBS_SCOPE("wl.kwl", {{"k", k}, {"graphs", graphs.size()}});
  Interner interner;
  KwlColoring out;
  out.k = k;
  out.stable.resize(graphs.size());

  // Initialization: atomic types.
  for (size_t g = 0; g < graphs.size(); ++g) {
    out.stable[g].resize(PowN(graphs[g]->num_vertices(), k));
    InitAtomicTypes(*graphs[g], k, &interner, &out.stable[g]);
  }

  size_t prev_distinct = CountDistinct(out.stable);
  for (size_t round = 1;; ++round) {
    if (max_rounds >= 0 && round > static_cast<size_t>(max_rounds)) break;
    obs::Scope round_span(round_series, {{"round", round}});
    std::vector<std::vector<uint64_t>> next(graphs.size());
    for (size_t g = 0; g < graphs.size(); ++g) {
      size_t n = graphs[g]->num_vertices();
      size_t tuples = out.stable[g].size();
      next[g].resize(tuples);
      // Precomputed strides for substituting position j: replacing v_j by w
      // changes the index by (w - v_j) * n^{k-1-j}.
      std::vector<size_t> stride(k, 1);
      for (size_t j = k; j-- > 1;) stride[j - 1] = stride[j] * n;
      // Pass 1 over each block (parallel): the raw refinement signature
      // [old color | sorted list of the n substituted k-vectors]. Sorting
      // the raw k-vectors — rather than interning each to an id first, as
      // the serial-era code did — keeps the bytes independent of interner
      // state, so every shard schedule and thread count produces the same
      // signature; ids are then assigned serially in tuple order.
      std::vector<std::string> sigs;
      for (size_t block = 0; block < tuples; block += kTupleBlock) {
        size_t block_end = std::min(tuples, block + kTupleBlock);
        sigs.resize(block_end - block);
        ParallelFor(block, block_end, 64, [&](size_t tb, size_t te) {
          std::vector<size_t> tuple;
          std::vector<std::vector<uint64_t>> wvecs(
              n, std::vector<uint64_t>(k));
          std::vector<uint64_t> sig;
          for (size_t t = tb; t < te; ++t) {
            DecodeTuple(t, n, k, &tuple);
            for (size_t w = 0; w < n; ++w)
              for (size_t j = 0; j < k; ++j)
                wvecs[w][j] = out.stable[g][t + (w - tuple[j]) * stride[j]];
            std::sort(wvecs.begin(), wvecs.end());
            sig.clear();
            sig.reserve(1 + n * k);
            sig.push_back(out.stable[g][t]);
            for (const auto& wv : wvecs)
              sig.insert(sig.end(), wv.begin(), wv.end());
            sigs[t - block] = EncodeWords(sig);
          }
        });
        for (size_t t = block; t < block_end; ++t)
          next[g][t] = interner.Intern(sigs[t - block]);
      }
    }
    size_t distinct = CountDistinct(next);
    round_span.SetArg("colors", static_cast<int64_t>(distinct));
    rounds_total->Increment();
    out.stable = std::move(next);
    out.rounds = round;
    if (distinct == prev_distinct) break;
    prev_distinct = distinct;
  }
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
  for (const Graph* g : graphs) {
    size_t tuples = PowN(g->num_vertices(), k);
    if (tuples > 2'000'000) {
      return Status::OutOfRange("k-WL tuple table too large (n^k > 2e6)");
    }
  }

  static obs::Counter* runs = obs::GetCounter("wl.oblivious_kwl.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.oblivious_kwl.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.oblivious_kwl.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  static obs::LatencyHistogram* round_series =
      obs::GetLatencyHistogram("wl.round");
  runs->Increment();
  GELC_OBS_SCOPE("wl.oblivious_kwl", {{"k", k}, {"graphs", graphs.size()}});
  Interner interner;
  KwlColoring out;
  out.k = k;
  out.stable.resize(graphs.size());

  for (size_t g = 0; g < graphs.size(); ++g) {
    out.stable[g].resize(PowN(graphs[g]->num_vertices(), k));
    InitAtomicTypes(*graphs[g], k, &interner, &out.stable[g]);
  }

  size_t prev_distinct = CountDistinct(out.stable);
  for (size_t round = 1;; ++round) {
    if (max_rounds >= 0 && round > static_cast<size_t>(max_rounds)) break;
    obs::Scope round_span(round_series, {{"round", round}});
    std::vector<std::vector<uint64_t>> next(graphs.size());
    for (size_t g = 0; g < graphs.size(); ++g) {
      size_t n = graphs[g]->num_vertices();
      size_t tuples = out.stable[g].size();
      next[g].resize(tuples);
      std::vector<size_t> stride(k, 1);
      for (size_t j = k; j-- > 1;) stride[j - 1] = stride[j] * n;
      // Same two-pass scheme as folklore k-WL: per position, the SORTED
      // multiset over w of the single substituted color is embedded raw
      // into the signature (no intermediate interning), so the bytes are
      // interner-independent and identical for every thread count.
      std::vector<std::string> sigs;
      for (size_t block = 0; block < tuples; block += kTupleBlock) {
        size_t block_end = std::min(tuples, block + kTupleBlock);
        sigs.resize(block_end - block);
        ParallelFor(block, block_end, 64, [&](size_t tb, size_t te) {
          std::vector<size_t> tuple;
          std::vector<uint64_t> sig;
          for (size_t t = tb; t < te; ++t) {
            DecodeTuple(t, n, k, &tuple);
            sig.clear();
            sig.reserve(1 + k * n);
            sig.push_back(out.stable[g][t]);
            for (size_t j = 0; j < k; ++j) {
              size_t head = sig.size();
              for (size_t w = 0; w < n; ++w)
                sig.push_back(
                    out.stable[g][t + (w - tuple[j]) * stride[j]]);
              std::sort(sig.begin() + head, sig.end());
            }
            sigs[t - block] = EncodeWords(sig);
          }
        });
        for (size_t t = block; t < block_end; ++t)
          next[g][t] = interner.Intern(sigs[t - block]);
      }
    }
    size_t distinct = CountDistinct(next);
    round_span.SetArg("colors", static_cast<int64_t>(distinct));
    rounds_total->Increment();
    out.stable = std::move(next);
    out.rounds = round;
    if (distinct == prev_distinct) break;
    prev_distinct = distinct;
  }
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
