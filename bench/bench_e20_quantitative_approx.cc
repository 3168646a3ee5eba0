// Experiment E20 (slide 69, open question #2): "quantitative
// approximation results — what is the complexity of embeddings needed to
// approximate within ε?" We measure the empirical ε(M) curve: test RMSE
// of a ridge read-out on M random GNN-101 graph embeddings fitting a
// CR-invariant target (hom(P4, ·) walk counts), for growing M.
//
// Expected shape: the error decays steadily with embedding complexity
// (roughly like a random-features Monte-Carlo rate) until it saturates
// near the float/ridge floor — the quantitative face of slide 30's
// universality on compact families.
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/gnn101.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "tensor/linalg.h"

using namespace gelc;

namespace {

Matrix EmbedAll(const std::vector<Graph>& graphs,
                const std::vector<Gnn101Model>& models, size_t use) {
  size_t d = 0;
  for (size_t i = 0; i < use; ++i) d += models[i].output_dim();
  Matrix out(graphs.size(), d + 1);
  for (size_t g = 0; g < graphs.size(); ++g) {
    size_t off = 0;
    for (size_t i = 0; i < use; ++i) {
      Matrix e = *GraphEmbedding(models[i], graphs[g]);
      for (size_t j = 0; j < e.cols(); ++j) out.At(g, off++) = e.At(0, j);
    }
    out.At(g, off) = 1.0;
  }
  return out;
}

}  // namespace

int main() {
  Rng rng(2023);
  std::vector<Graph> train, test;
  for (int i = 0; i < 200; ++i) {
    Graph g = RandomGnp(6 + rng.NextBounded(4), 0.45, &rng);
    (i % 4 == 0 ? test : train).push_back(std::move(g));
  }
  std::vector<double> y_train, y_test;
  double scale = 0;
  for (const Graph& g : train) {
    y_train.push_back(
        static_cast<double>(*CountTreeHomomorphisms(PathGraph(4), g)));
    scale = std::max(scale, std::fabs(y_train.back()));
  }
  for (const Graph& g : test)
    y_test.push_back(
        static_cast<double>(*CountTreeHomomorphisms(PathGraph(4), g)));

  constexpr size_t kMaxModels = 48;
  std::vector<Gnn101Model> models;
  for (size_t i = 0; i < kMaxModels; ++i)
    models.push_back(
        *Gnn101Model::Random({1, 6, 6}, Activation::kTanh, 0.8, &rng));

  std::printf("E20: embedding complexity vs approximation error"
              "  [slide 69, Q2]\n\n");
  std::printf("target: hom(P4, .) on G(6..9, .45); %zu train / %zu test;\n"
              "target scale ~%.0f\n\n",
              train.size(), test.size(), scale);
  std::printf("%-10s %-14s %-16s\n", "M models", "features", "test RMSE");
  std::vector<double> errors;
  for (size_t m : {1, 2, 4, 8, 16, 32, 48}) {
    Matrix x_train = EmbedAll(train, models, m);
    Matrix x_test = EmbedAll(test, models, m);
    Matrix y(train.size(), 1);
    for (size_t i = 0; i < train.size(); ++i) y.At(i, 0) = y_train[i];
    Matrix w = *RidgeRegression(x_train, y, 1e-6);
    double se = 0;
    Matrix pred = x_test.MatMul(w);
    for (size_t i = 0; i < test.size(); ++i) {
      double d = pred.At(i, 0) - y_test[i];
      se += d * d;
    }
    double rmse = std::sqrt(se / test.size());
    errors.push_back(rmse);
    std::printf("%-10zu %-14zu %-16.4f\n", m, x_train.cols() - 1, rmse);
  }
  std::printf(
      "\nexpected shape: monotone-ish decay with M until saturation — the\n"
      "empirical ε(complexity) curve the paper asks for.\n");
  bool decays = errors.back() < 0.3 * errors.front();
  return decays ? 0 : 1;
}
