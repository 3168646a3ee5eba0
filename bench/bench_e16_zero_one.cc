// Experiment E16 (slide 73, Adam-Day-Iliant-Ceylan): zero-one laws of
// GNNs. For a FIXED mean-aggregation GNN with bounded activations, the
// graph embedding of an Erdős–Rényi G(n, 1/2) graph with iid random
// vertex labels concentrates as n grows: neighborhood label-fractions
// converge to their expectation, so the embedding tends to a constant
// and any fixed threshold classifier outputs one class asymptotically
// almost surely.
//
// Measured: per n, the standard deviation of the embedding over 40
// sampled labelled graphs and the fraction of samples on the majority
// side of a fixed random linear threshold. Expect stddev ↓ and majority
// fraction → 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/mpnn.h"
#include "graph/generators.h"

using namespace gelc;

namespace {

Graph RandomLabelledGnp(size_t n, Rng* rng) {
  Graph g(n, 2);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v)
      if (rng->NextBernoulli(0.5))
        GELC_CHECK_OK(
            g.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v)));
    g.SetOneHotFeature(static_cast<VertexId>(u), rng->NextBounded(2));
  }
  return g;
}

}  // namespace

int main() {
  Rng rng(2023);
  MpnnModel model =
      *MpnnModel::Random({2, 8, 8}, Aggregation::kMean, 0.8, &rng);
  // Fixed random threshold classifier on the embedding.
  Matrix w = Matrix::RandomGaussian(8, 1, 1.0, &rng);
  double bias = rng.NextGaussian() * 0.1;
  constexpr int kSamples = 40;

  std::printf("E16: zero-one law for mean-aggregation GNNs  [slide 73]\n\n");
  std::printf("%-8s %-18s %-18s\n", "n", "embedding stddev",
              "majority fraction");
  std::vector<double> stddevs;
  std::vector<double> majorities;
  for (size_t n : {8, 16, 32, 64, 128, 256}) {
    std::vector<Matrix> embeddings;
    int positive = 0;
    for (int s = 0; s < kSamples; ++s) {
      Graph g = RandomLabelledGnp(n, &rng);
      Matrix e = *GraphEmbedding(model, g);
      if (e.MatMul(w).At(0, 0) + bias >= 0) ++positive;
      embeddings.push_back(std::move(e));
    }
    size_t d = embeddings[0].cols();
    double total_var = 0;
    for (size_t j = 0; j < d; ++j) {
      double mean = 0;
      for (const Matrix& e : embeddings) mean += e.At(0, j);
      mean /= kSamples;
      double var = 0;
      for (const Matrix& e : embeddings) {
        double x = e.At(0, j);
        var += (x - mean) * (x - mean);
      }
      total_var += var / kSamples;
    }
    double stddev = std::sqrt(total_var / d);
    double majority =
        std::max(positive, kSamples - positive) /
        static_cast<double>(kSamples);
    stddevs.push_back(stddev);
    majorities.push_back(majority);
    std::printf("%-8zu %-18.5f %-18.3f\n", n, stddev, majority);
  }
  std::printf(
      "\nexpected shape: stddev decays (roughly like 1/sqrt(n)) and the\n"
      "fixed classifier's output becomes constant — the zero-one law.\n");
  bool ok = stddevs.back() < 0.25 * stddevs.front() &&
            majorities.back() >= 0.95;
  return ok ? 0 : 1;
}
