#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

Graph::Graph(size_t n, size_t feature_dim, bool directed)
    : directed_(directed),
      out_(n),
      in_(n),
      features_(n, feature_dim) {}

Graph Graph::Unlabeled(size_t n, bool directed) {
  Graph g(n, 1, directed);
  for (size_t v = 0; v < n; ++v) g.features_.At(v, 0) = 1.0;
  return g;
}

namespace {

// Inserts x into a sorted vector, returning false if already present.
bool SortedInsert(std::vector<VertexId>* v, VertexId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

// Erases x from a sorted vector, returning false if absent.
bool SortedErase(std::vector<VertexId>* v, VertexId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) return false;
  v->erase(it);
  return true;
}

}  // namespace

Status Graph::AddEdge(VertexId u, VertexId v) {
  size_t n = num_vertices();
  if (u >= n || v >= n) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not supported");
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists("duplicate edge");
  }
  SortedInsert(&out_[u], v);
  SortedInsert(&in_[v], u);
  ++num_arcs_;
  if (!directed_) {
    SortedInsert(&out_[v], u);
    SortedInsert(&in_[u], v);
    ++num_arcs_;
  }
  ++mutation_epoch_;
  return Status::OK();
}

Status Graph::RemoveEdge(VertexId u, VertexId v) {
  size_t n = num_vertices();
  if (u >= n || v >= n) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not supported");
  }
  if (!HasEdge(u, v)) {
    return Status::NotFound("no such edge");
  }
  SortedErase(&out_[u], v);
  SortedErase(&in_[v], u);
  --num_arcs_;
  if (!directed_) {
    SortedErase(&out_[v], u);
    SortedErase(&in_[u], v);
    --num_arcs_;
  }
  ++mutation_epoch_;
  return Status::OK();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  GELC_DCHECK(u < num_vertices() && v < num_vertices());
  return std::binary_search(out_[u].begin(), out_[u].end(), v);
}

void Graph::SetFeature(VertexId v, const Matrix& row) {
  features_.SetRow(v, row);
}

void Graph::SetOneHotFeature(VertexId v, size_t k) {
  GELC_CHECK(k < feature_dim());
  for (size_t j = 0; j < feature_dim(); ++j) features_.At(v, j) = 0.0;
  features_.At(v, k) = 1.0;
}

Matrix Graph::AdjacencyMatrix() const {
  static obs::Counter* builds =
      obs::GetCounter("graph.dense_adjacency_builds");
  builds->Increment();
  size_t n = num_vertices();
  Matrix a(n, n);
  for (size_t u = 0; u < n; ++u)
    for (VertexId v : out_[u]) a.At(u, v) = 1.0;
  return a;
}

const CsrGraph& Graph::Csr() const {
  if (csr_ != nullptr && csr_->epoch() == mutation_epoch_) {
    static obs::Counter* hits = obs::GetCounter("graph.csr_cache.hits");
    hits->Increment();
    return *csr_;
  }
  // The first build is a cache miss; every later one replaces a snapshot
  // that mutations made stale (e2e reads it as graph.delta.compactions).
  // Both are the one CsrGraph(*this) construction.
  static obs::Counter* misses = obs::GetCounter("graph.csr_cache.misses");
  static obs::Counter* rebuilds = obs::GetCounter("graph.delta.compactions");
  (csr_ == nullptr ? misses : rebuilds)->Increment();
  GELC_OBS_SCOPE("graph.csr_build");
  csr_ = std::make_shared<const CsrGraph>(*this);
  return *csr_;
}

size_t Graph::dense_adjacency_builds() {
  return static_cast<size_t>(obs::ReadCounter("graph.dense_adjacency_builds"));
}

Matrix Graph::MeanAdjacencyMatrix() const {
  Matrix a = AdjacencyMatrix();
  for (size_t u = 0; u < num_vertices(); ++u) {
    size_t d = out_[u].size();
    if (d == 0) continue;
    for (size_t v = 0; v < num_vertices(); ++v)
      a.At(u, v) /= static_cast<double>(d);
  }
  return a;
}

Result<Graph> Graph::Permuted(const std::vector<size_t>& perm) const {
  size_t n = num_vertices();
  if (perm.size() != n) {
    return Status::InvalidArgument("permutation size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (size_t p : perm) {
    if (p >= n || seen[p]) {
      return Status::InvalidArgument("not a permutation");
    }
    seen[p] = true;
  }
  Graph g(n, feature_dim(), directed_);
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : out_[u]) {
      // For undirected graphs each unordered edge appears twice; add once.
      if (!directed_ && v < u) continue;
      GELC_RETURN_NOT_OK(g.AddEdge(static_cast<VertexId>(perm[u]),
                                   static_cast<VertexId>(perm[v])));
    }
    g.features_.SetRow(perm[u], features_.Row(u));
  }
  return g;
}

Result<Graph> Graph::DisjointUnion(const Graph& a, const Graph& b) {
  if (a.feature_dim() != b.feature_dim()) {
    return Status::InvalidArgument("feature dimension mismatch in union");
  }
  if (a.directed() != b.directed()) {
    return Status::InvalidArgument("directedness mismatch in union");
  }
  size_t na = a.num_vertices();
  Graph g(na + b.num_vertices(), a.feature_dim(), a.directed());
  for (size_t u = 0; u < na; ++u) {
    for (VertexId v : a.out_[u]) {
      if (!a.directed_ && v < u) continue;
      GELC_RETURN_NOT_OK(g.AddEdge(u, v));
    }
    g.features_.SetRow(u, a.features_.Row(u));
  }
  for (size_t u = 0; u < b.num_vertices(); ++u) {
    for (VertexId v : b.out_[u]) {
      if (!b.directed_ && v < u) continue;
      GELC_RETURN_NOT_OK(g.AddEdge(static_cast<VertexId>(na + u),
                                   static_cast<VertexId>(na + v)));
    }
    g.features_.SetRow(na + u, b.features_.Row(u));
  }
  return g;
}

std::vector<std::vector<VertexId>> Graph::ConnectedComponents() const {
  size_t n = num_vertices();
  std::vector<int> comp(n, -1);
  std::vector<std::vector<VertexId>> out;
  for (size_t s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    int c = static_cast<int>(out.size());
    out.emplace_back();
    std::vector<VertexId> stack = {static_cast<VertexId>(s)};
    comp[s] = c;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      out[c].push_back(v);
      for (VertexId w : out_[v]) {
        if (comp[w] < 0) {
          comp[w] = c;
          stack.push_back(w);
        }
      }
      for (VertexId w : in_[v]) {
        if (comp[w] < 0) {
          comp[w] = c;
          stack.push_back(w);
        }
      }
    }
    std::sort(out[c].begin(), out[c].end());
  }
  return out;
}

std::vector<size_t> Graph::DegreeSequence() const {
  std::vector<size_t> deg(num_vertices());
  for (size_t v = 0; v < num_vertices(); ++v) deg[v] = out_[v].size();
  std::sort(deg.begin(), deg.end());
  return deg;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  os << (directed_ ? "digraph" : "graph") << " n=" << num_vertices()
     << " m=" << num_edges() << " d=" << feature_dim() << "\n";
  for (size_t u = 0; u < num_vertices(); ++u) {
    os << "  " << u << " ->";
    for (VertexId v : out_[u]) os << " " << v;
    os << "  feat=" << features_.Row(u).ToString() << "\n";
  }
  return os.str();
}

std::string Graph::ToDot(const std::string& name) const {
  std::ostringstream os;
  os << (directed_ ? "digraph " : "graph ") << name << " {\n";
  const char* arrow = directed_ ? " -> " : " -- ";
  for (size_t u = 0; u < num_vertices(); ++u) {
    os << "  " << u << ";\n";
  }
  for (size_t u = 0; u < num_vertices(); ++u) {
    for (VertexId v : out_[u]) {
      if (!directed_ && v < u) continue;
      os << "  " << u << arrow << v << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace gelc
