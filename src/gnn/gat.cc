#include "gnn/gat.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace gelc {

namespace {

double LeakyReLU(double x, double slope) { return x > 0 ? x : slope * x; }

}  // namespace

GatModel::GatModel(std::vector<GatLayer> layers)
    : layers_(std::move(layers)) {
  GELC_CHECK(!layers_.empty());
  for (const GatLayer& l : layers_) {
    GELC_CHECK(l.attn_src.rows() == l.w.cols() && l.attn_src.cols() == 1);
    GELC_CHECK(l.attn_dst.rows() == l.w.cols() && l.attn_dst.cols() == 1);
  }
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    GELC_CHECK(layers_[i].w.cols() == layers_[i + 1].w.rows());
  }
}

Result<GatModel> GatModel::Random(const std::vector<size_t>& widths,
                                  double weight_scale, Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<GatLayer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    GatLayer l;
    l.w = Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale, rng);
    l.attn_src = Matrix::RandomGaussian(widths[i + 1], 1, weight_scale, rng);
    l.attn_dst = Matrix::RandomGaussian(widths[i + 1], 1, weight_scale, rng);
    layers.push_back(std::move(l));
  }
  return GatModel(std::move(layers));
}

Result<Matrix> GatModel::VertexEmbeddings(const Graph& g) const {
  if (g.feature_dim() != input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  size_t n = g.num_vertices();
  Matrix h = g.features();
  for (const GatLayer& l : layers_) {
    Matrix z = h.MatMul(l.w);  // n x d_out
    // Per-vertex attention logits' halves.
    Matrix src_score = z.MatMul(l.attn_src);  // n x 1
    Matrix dst_score = z.MatMul(l.attn_dst);  // n x 1
    size_t d = z.cols();
    Matrix next(n, d);
    for (size_t v = 0; v < n; ++v) {
      const auto& nbrs = g.Neighbors(static_cast<VertexId>(v));
      if (nbrs.empty()) continue;
      // Softmax over neighbors of LeakyReLU(src(u) + dst(v)).
      double mx = -1e300;
      std::vector<double> logits(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        logits[i] = LeakyReLU(src_score.At(nbrs[i], 0) + dst_score.At(v, 0),
                              l.leaky_slope);
        mx = std::max(mx, logits[i]);
      }
      double denom = 0;
      for (double& x : logits) {
        x = std::exp(x - mx);
        denom += x;
      }
      for (size_t i = 0; i < nbrs.size(); ++i) {
        double alpha = logits[i] / denom;
        for (size_t j = 0; j < d; ++j)
          next.At(v, j) += alpha * z.At(nbrs[i], j);
      }
      for (size_t j = 0; j < d; ++j)
        next.At(v, j) = ApplyActivation(l.act, next.At(v, j));
    }
    h = std::move(next);
  }
  return h;
}

Result<Matrix> GatModel::GraphEmbedding(const Graph& g) const {
  GELC_ASSIGN_OR_RETURN(Matrix h, VertexEmbeddings(g));
  return h.ColMeans();
}

}  // namespace gelc
