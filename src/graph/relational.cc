#include "graph/relational.h"

#include <algorithm>

#include "base/logging.h"
#include "tensor/ops.h"

namespace gelc {

RelationalGraph::RelationalGraph(size_t n, size_t num_relations,
                                 size_t feature_dim)
    : n_(n),
      relations_(num_relations,
                 std::vector<std::vector<VertexId>>(n)),
      features_(n, feature_dim) {}

Status RelationalGraph::AddEdge(size_t relation, VertexId u, VertexId v) {
  if (relation >= relations_.size()) {
    return Status::OutOfRange("relation index out of range");
  }
  if (u >= n_ || v >= n_) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loops not supported");
  if (HasEdge(relation, u, v)) {
    return Status::AlreadyExists("duplicate edge in relation");
  }
  auto insert = [](std::vector<VertexId>* vec, VertexId x) {
    vec->insert(std::lower_bound(vec->begin(), vec->end(), x), x);
  };
  insert(&relations_[relation][u], v);
  insert(&relations_[relation][v], u);
  return Status::OK();
}

bool RelationalGraph::HasEdge(size_t relation, VertexId u, VertexId v) const {
  GELC_DCHECK(relation < relations_.size() && u < n_ && v < n_);
  const auto& nbrs = relations_[relation][u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

const std::vector<VertexId>& RelationalGraph::Neighbors(size_t relation,
                                                        VertexId v) const {
  GELC_DCHECK(relation < relations_.size() && v < n_);
  return relations_[relation][v];
}

void RelationalGraph::SetOneHotFeature(VertexId v, size_t k) {
  GELC_CHECK(k < feature_dim());
  for (size_t j = 0; j < feature_dim(); ++j) features_.At(v, j) = 0.0;
  features_.At(v, k) = 1.0;
}

Graph RelationalGraph::CollapseRelations() const {
  Graph g(n_, feature_dim());
  for (size_t r = 0; r < relations_.size(); ++r) {
    for (size_t u = 0; u < n_; ++u) {
      for (VertexId v : relations_[r][u]) {
        if (v < u) continue;
        // Parallel edges across relations collapse silently
        // (kAlreadyExists is the expected outcome, not an error).
        g.AddEdge(static_cast<VertexId>(u), v).IgnoreError();
      }
    }
  }
  g.mutable_features() = features_;
  return g;
}

Result<Graph> RelationalGraph::RelationGraph(size_t relation) const {
  if (relation >= relations_.size()) {
    return Status::OutOfRange("relation index out of range");
  }
  Graph g(n_, feature_dim());
  for (size_t u = 0; u < n_; ++u) {
    for (VertexId v : relations_[relation][u]) {
      if (v < u) continue;
      GELC_RETURN_NOT_OK(g.AddEdge(static_cast<VertexId>(u), v));
    }
  }
  g.mutable_features() = features_;
  return g;
}

Result<RelationalGraph> RelationalGraph::Permuted(
    const std::vector<size_t>& perm) const {
  if (perm.size() != n_) {
    return Status::InvalidArgument("permutation size mismatch");
  }
  RelationalGraph out(n_, relations_.size(), feature_dim());
  for (size_t r = 0; r < relations_.size(); ++r) {
    for (size_t u = 0; u < n_; ++u) {
      for (VertexId v : relations_[r][u]) {
        if (v < u) continue;
        GELC_RETURN_NOT_OK(
            out.AddEdge(r, static_cast<VertexId>(perm[u]),
                        static_cast<VertexId>(perm[v])));
      }
    }
  }
  for (size_t u = 0; u < n_; ++u)
    out.features_.SetRow(perm[u], features_.Row(u));
  return out;
}

RelationalGnn::RelationalGnn(std::vector<Layer> layers, size_t num_relations)
    : layers_(std::move(layers)), num_relations_(num_relations) {
  GELC_CHECK(!layers_.empty());
  for (const Layer& l : layers_) {
    GELC_CHECK(l.w_rel.size() == num_relations_);
    for (const Matrix& w : l.w_rel) {
      GELC_CHECK(w.rows() == l.w_self.rows() && w.cols() == l.w_self.cols());
    }
    GELC_CHECK(l.b.rows() == 1 && l.b.cols() == l.w_self.cols());
  }
}

Result<RelationalGnn> RelationalGnn::Random(const std::vector<size_t>& widths,
                                            size_t num_relations,
                                            Activation act,
                                            double weight_scale, Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  if (num_relations == 0) {
    return Status::InvalidArgument("need at least one relation");
  }
  std::vector<Layer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    Layer l;
    l.w_self =
        Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale, rng);
    for (size_t r = 0; r < num_relations; ++r) {
      l.w_rel.push_back(
          Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale,
                                 rng));
    }
    l.b = Matrix::RandomGaussian(1, widths[i + 1], weight_scale, rng);
    l.act = act;
    layers.push_back(std::move(l));
  }
  return RelationalGnn(std::move(layers), num_relations);
}

Result<Matrix> RelationalGnn::VertexEmbeddings(
    const RelationalGraph& g) const {
  if (g.feature_dim() != input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (g.num_relations() != num_relations_) {
    return Status::InvalidArgument("relation count does not match model");
  }
  size_t n = g.num_vertices();
  Matrix f = g.features();
  for (const Layer& l : layers_) {
    Matrix next = f.MatMul(l.w_self);
    for (size_t r = 0; r < num_relations_; ++r) {
      // Σ_{u ∈ N_r(v)} f_u, then times W_r.
      Matrix agg(n, f.cols());
      for (size_t v = 0; v < n; ++v) {
        for (VertexId u : g.Neighbors(r, static_cast<VertexId>(v))) {
          for (size_t j = 0; j < f.cols(); ++j)
            agg.At(v, j) += f.At(u, j);
        }
      }
      next += agg.MatMul(l.w_rel[r]);
    }
    f = ApplyActivation(l.act, next.AddRowBroadcast(l.b));
  }
  return f;
}

Result<Matrix> RelationalGnn::GraphEmbedding(const RelationalGraph& g) const {
  GELC_ASSIGN_OR_RETURN(Matrix f, VertexEmbeddings(g));
  return f.ColSums();
}

}  // namespace gelc
