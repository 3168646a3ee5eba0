// Experiment E17 (slides 22, 63): expressiveness bounds are LEARNING
// bounds. The concept "is this 2-regular graph connected (one cycle) or
// not (two cycles)?" is constant on CR classes' complement — every
// C_{2k} vs C_k+C_k instance pair is CR-equivalent — so NO CR-bounded
// hypothesis class can learn it, however it is trained. A 2-FGNN's
// random features separate the classes, and a linear read-out on them
// solves the task.
//
// Protocol: random-feature ridge regression (no backprop needed to make
// the point): embed every graph with M fixed random models, fit a ridge
// classifier on train graphs, report test accuracy.
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "gnn/fgnn.h"
#include "gnn/gnn101.h"
#include "graph/generators.h"
#include "tensor/linalg.h"

using namespace gelc;

namespace {

// Dataset: for k in [3, 8], several permuted copies of C_{2k} (label 1,
// connected) and C_k + C_k (label 0).
void BuildDataset(Rng* rng, std::vector<Graph>* graphs,
                  std::vector<size_t>* labels) {
  for (size_t k = 3; k <= 8; ++k) {
    Graph one = CycleGraph(2 * k);
    Graph two = *Graph::DisjointUnion(CycleGraph(k), CycleGraph(k));
    for (int copy = 0; copy < 4; ++copy) {
      graphs->push_back(one.Permuted(rng->Permutation(2 * k)).value());
      labels->push_back(1);
      graphs->push_back(two.Permuted(rng->Permutation(2 * k)).value());
      labels->push_back(0);
    }
  }
}

template <typename EmbedFn>
double RidgeAccuracy(const std::vector<Graph>& graphs,
                     const std::vector<size_t>& labels, size_t train_count,
                     const EmbedFn& embed) {
  size_t m = graphs.size();
  Matrix first = embed(graphs[0]);
  size_t d = first.cols();
  Matrix x(m, d + 1);
  for (size_t i = 0; i < m; ++i) {
    Matrix e = embed(graphs[i]);
    for (size_t j = 0; j < d; ++j) x.At(i, j) = e.At(0, j);
    x.At(i, d) = 1.0;
  }
  Matrix x_train(train_count, d + 1);
  Matrix y_train(train_count, 1);
  for (size_t i = 0; i < train_count; ++i) {
    for (size_t j = 0; j <= d; ++j) x_train.At(i, j) = x.At(i, j);
    y_train.At(i, 0) = labels[i] == 1 ? 1.0 : -1.0;
  }
  Matrix w = *RidgeRegression(x_train, y_train, 1e-4);
  size_t hits = 0;
  for (size_t i = train_count; i < m; ++i) {
    double score = 0;
    for (size_t j = 0; j <= d; ++j) score += x.At(i, j) * w.At(j, 0);
    if ((score >= 0) == (labels[i] == 1)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(m - train_count);
}

}  // namespace

int main() {
  Rng rng(2023);
  std::vector<Graph> graphs;
  std::vector<size_t> labels;
  BuildDataset(&rng, &graphs, &labels);
  // Shuffle into train/test.
  std::vector<size_t> order = rng.Permutation(graphs.size());
  std::vector<Graph> shuffled;
  std::vector<size_t> shuffled_labels;
  for (size_t i : order) {
    shuffled.push_back(graphs[i]);
    shuffled_labels.push_back(labels[i]);
  }
  size_t train = shuffled.size() * 2 / 3;

  // Feature maps: 12 random deep GNN-101s vs 8 random 4-layer 2-FGNNs.
  // FGNN depth matters: each folklore round composes pair information
  // like path-doubling, so ~log2(n) = 4 layers see the connectivity of
  // cycles up to C_16.
  std::vector<Gnn101Model> gnns;
  for (int i = 0; i < 12; ++i)
    gnns.push_back(*Gnn101Model::Random({1, 6, 6, 6, 6}, Activation::kTanh,
                                        0.8, &rng));
  std::vector<Fgnn2Model> fgnns;
  for (int i = 0; i < 8; ++i)
    fgnns.push_back(*Fgnn2Model::Random({1, 5, 5, 5, 5}, 0.8, &rng));

  auto gnn_embed = [&gnns](const Graph& g) {
    Matrix out(1, 0);
    for (const Gnn101Model& m : gnns)
      out = out.ConcatCols(*GraphEmbedding(m, g));
    return out;
  };
  auto fgnn_embed = [&fgnns](const Graph& g) {
    Matrix out(1, 0);
    for (const Fgnn2Model& m : fgnns)
      out = out.ConcatCols(*m.GraphEmbedding(g));
    return out;
  };

  double gnn_acc = RidgeAccuracy(shuffled, shuffled_labels, train,
                                 gnn_embed);
  double fgnn_acc = RidgeAccuracy(shuffled, shuffled_labels, train,
                                  fgnn_embed);

  std::printf("E17: learning a concept beyond 1-WL  [slides 22, 63]\n\n");
  std::printf("task: connected C_{2k} vs C_k + C_k (all pairs "
              "CR-equivalent)\n");
  std::printf("dataset: %zu graphs (%zu train / %zu test)\n\n",
              shuffled.size(), train, shuffled.size() - train);
  std::printf("%-34s test accuracy\n", "feature map + ridge read-out");
  std::printf("%-34s %.3f   (stuck at chance)\n",
              "12 random GNN-101 embeddings", gnn_acc);
  std::printf("%-34s %.3f   (above the 1-WL wall)\n",
              "8 random 2-FGNN embeddings", fgnn_acc);
  std::printf(
      "\nexpected: GNN features are IDENTICAL within each CR class, so no\n"
      "read-out can beat chance; 2-FGNN features separate the classes\n"
      "(their power is folklore 2-WL) and the task becomes learnable.\n");
  return (gnn_acc < 0.7 && fgnn_acc > 0.85) ? 0 : 1;
}
