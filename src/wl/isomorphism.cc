#include "wl/isomorphism.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "base/hash.h"
#include "base/logging.h"
#include "wl/refine.h"

namespace gelc {

namespace {

// Stable colors of a and b from one joint refinement, so colors compare
// directly between the two graphs.
struct JointColors {
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
};

// Round 0 of vertex v: its feature row's bits plus the size of its
// connected component (cheap and decisive for disjoint-union versus
// connected look-alikes such as CFI cycle pairs).
std::string InitialSignature(const Graph& g, size_t v, size_t comp_size) {
  const Matrix& f = g.features();
  std::string buf((g.feature_dim() + 1) * sizeof(double), '\0');
  for (size_t j = 0; j < g.feature_dim(); ++j) {
    double x = f.At(v, j);
    std::memcpy(buf.data() + j * sizeof(double), &x, sizeof(double));
  }
  double cs = static_cast<double>(comp_size);
  std::memcpy(buf.data() + g.feature_dim() * sizeof(double), &cs,
              sizeof(double));
  return buf;
}

// Refines a and b jointly to their stable coloring. A round signs v by
// [color | sorted out-neighbor colors | ~0 | sorted in-neighbor colors].
// Returns nullopt when the stable color histograms differ (not
// isomorphic). One check at the end suffices: each round's color
// determines the previous round's, so equal final histograms imply
// equal histograms at every earlier round.
std::optional<JointColors> RefineJointly(const Graph& ga, const Graph& gb) {
  const std::vector<const Graph*> graphs = {&ga, &gb};
  Interner interner;
  WlColoring joint;
  for (const Graph* g : graphs) {
    std::vector<size_t> comp_size(g->num_vertices(), 0);
    for (const auto& comp : g->ConnectedComponents())
      for (VertexId v : comp) comp_size[v] = comp.size();
    std::vector<uint64_t> initial(g->num_vertices());
    for (size_t v = 0; v < initial.size(); ++v)
      initial[v] = interner.Intern(InitialSignature(*g, v, comp_size[v]));
    joint.stable.push_back(std::move(initial));
  }
  Refine(
      [&](size_t g, const std::vector<uint64_t>& prev, size_t begin,
          size_t end, std::string* sigs) {
        const Graph& graph = *graphs[g];
        std::vector<uint64_t> words;
        for (size_t v = begin; v < end; ++v) {
          const VertexId vid = static_cast<VertexId>(v);
          words.assign(1, prev[v]);
          for (VertexId u : graph.Neighbors(vid)) words.push_back(prev[u]);
          std::sort(words.begin() + 1, words.end());
          words.push_back(~uint64_t{0});  // separator
          const size_t head = words.size();
          for (VertexId u : graph.InNeighbors(vid)) words.push_back(prev[u]);
          std::sort(words.begin() + static_cast<ptrdiff_t>(head),
                    words.end());
          sigs[v - begin] = EncodeWords(words);
        }
      },
      32, /*max_rounds=*/-1, &interner, &joint.stable, nullptr);
  if (joint.GraphSignature(0) != joint.GraphSignature(1)) return std::nullopt;
  return JointColors{std::move(joint.stable[0]), std::move(joint.stable[1])};
}

// Backtracking matcher.
class Matcher {
 public:
  Matcher(const Graph& a, const Graph& b, const JointColors& colors,
          size_t max_steps)
      : a_(a), b_(b), colors_(colors), max_steps_(max_steps) {
    size_t n = a.num_vertices();
    map_.assign(n, kUnset);
    used_.assign(n, false);
    preimage_.assign(b.num_vertices(), kUnset);
    // Order vertices of a by ascending color-class size (most constrained
    // first), breaking ties by descending degree.
    std::map<uint64_t, size_t> class_size;
    for (uint64_t c : colors_.a) ++class_size[c];
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](size_t x, size_t y) {
      size_t sx = class_size[colors_.a[x]];
      size_t sy = class_size[colors_.a[y]];
      if (sx != sy) return sx < sy;
      return a_.OutDegree(static_cast<VertexId>(x)) >
             a_.OutDegree(static_cast<VertexId>(y));
    });
    // Candidate lists per color.
    for (size_t v = 0; v < n; ++v)
      candidates_[colors_.b[v]].push_back(v);
  }

  // Returns found mapping, nullopt, or error on budget exhaustion.
  Result<std::optional<std::vector<size_t>>> Run() {
    bool found = Search(0);
    if (steps_ > max_steps_) {
      return Status::Internal("isomorphism search budget exhausted");
    }
    if (!found) return std::optional<std::vector<size_t>>{};
    return std::optional<std::vector<size_t>>{map_};
  }

 private:
  static constexpr size_t kUnset = static_cast<size_t>(-1);

  bool Feasible(size_t v, size_t w) {
    // Colors must match; adjacency to already-mapped vertices must match
    // in both directions.
    if (colors_.a[v] != colors_.b[w]) return false;
    for (VertexId u : a_.Neighbors(static_cast<VertexId>(v))) {
      if (map_[u] != kUnset &&
          !b_.HasEdge(static_cast<VertexId>(w),
                      static_cast<VertexId>(map_[u])))
        return false;
    }
    for (VertexId u : a_.InNeighbors(static_cast<VertexId>(v))) {
      if (map_[u] != kUnset &&
          !b_.HasEdge(static_cast<VertexId>(map_[u]),
                      static_cast<VertexId>(w)))
        return false;
    }
    // Mapped neighbors of w must all be images of neighbors of v: degree
    // equality plus the check above implies it for complete mappings; for
    // partial mappings check the reverse direction explicitly.
    for (VertexId u : b_.Neighbors(static_cast<VertexId>(w))) {
      size_t pre = preimage_[u];
      if (pre != kUnset && !a_.HasEdge(static_cast<VertexId>(v),
                                       static_cast<VertexId>(pre)))
        return false;
    }
    for (VertexId u : b_.InNeighbors(static_cast<VertexId>(w))) {
      size_t pre = preimage_[u];
      if (pre != kUnset && !a_.HasEdge(static_cast<VertexId>(pre),
                                       static_cast<VertexId>(v)))
        return false;
    }
    return true;
  }

  bool Search(size_t depth) {
    if (steps_ > max_steps_) return false;
    if (depth == order_.size()) return true;
    size_t v = order_[depth];
    for (size_t w : candidates_[colors_.a[v]]) {
      if (used_[w]) continue;
      ++steps_;
      if (!Feasible(v, w)) continue;
      map_[v] = w;
      used_[w] = true;
      preimage_[static_cast<VertexId>(w)] = v;
      if (Search(depth + 1)) return true;
      map_[v] = kUnset;
      used_[w] = false;
      preimage_[static_cast<VertexId>(w)] = kUnset;
      if (steps_ > max_steps_) return false;
    }
    return false;
  }

  const Graph& a_;
  const Graph& b_;
  const JointColors& colors_;
  size_t max_steps_;
  size_t steps_ = 0;
  std::vector<size_t> map_;
  std::vector<bool> used_;
  std::vector<size_t> order_;
  std::map<uint64_t, std::vector<size_t>> candidates_;
  // preimage_[w] = vertex of `a` currently mapped to w, or kUnset.
  std::vector<size_t> preimage_;
};

}  // namespace

Result<std::optional<std::vector<size_t>>> FindIsomorphism(
    const Graph& a, const Graph& b, size_t max_steps) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_arcs() != b.num_arcs() ||
      a.feature_dim() != b.feature_dim() ||
      a.DegreeSequence() != b.DegreeSequence()) {
    return std::optional<std::vector<size_t>>{};
  }
  std::optional<JointColors> colors = RefineJointly(a, b);
  if (!colors.has_value()) return std::optional<std::vector<size_t>>{};
  Matcher matcher(a, b, *colors, max_steps);
  return matcher.Run();
}

Result<bool> AreIsomorphic(const Graph& a, const Graph& b,
                           size_t max_steps) {
  GELC_ASSIGN_OR_RETURN(std::optional<std::vector<size_t>> iso,
                        FindIsomorphism(a, b, max_steps));
  return iso.has_value();
}

}  // namespace gelc
