// `train`: ERM graph classification. One op is one minibatch SGD step:
// GraphLogits + SoftmaxCrossEntropy, Tape::Backward, then ZeroGrad +
// Sgd::Step. Minibatches are packed once in set-up, as the trainer does;
// every pass trains from the same initial weights for the same number of
// epochs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tape.h"
#include "base/rng.h"
#include "gnn/trainable.h"
#include "graph/batch.h"
#include "inputs.h"
#include "workloads.h"

namespace gelc::e2e {

namespace {

constexpr size_t kMinVertices = 8;  // molecule sizes ~ U[8, 64]
constexpr size_t kMaxVertices = 64;
constexpr double kLearningRate = 0.05;
// The initial weights are fixed, not drawn from the seed: how many ReLU
// units a run leaves dead (and Tape::Backward then skips) depends on the
// init, and with seeded weights the step cost varied 2x across seeds.
constexpr uint64_t kInitSeed = 5;

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(uint64_t seed, const Sizes& sizes, Tracer* tracer)
      : epochs_(sizes.train_epochs) {
    Rng rng(seed);
    data_ =
        MoleculeDataset(sizes.train_graphs, kMinVertices, kMaxVertices, &rng);
    for (size_t lo = 0; lo < data_.graphs.size(); lo += sizes.train_batch) {
      const size_t hi = std::min(lo + sizes.train_batch, data_.graphs.size());
      std::vector<const Graph*> members;
      std::vector<size_t> labels;
      for (size_t i = lo; i < hi; ++i) {
        members.push_back(&data_.graphs[i]);
        labels.push_back(data_.labels[i]);
      }
      ScopedSpan span(tracer, Layer::kGraphBatchPack);
      batches_.push_back(
          Minibatch{GraphBatch::Create(members).value(), std::move(labels)});
    }
    TrainableGnn::Config config;
    config.widths = {4, 16, 16};
    config.num_outputs = 2;
    config.seed = kInitSeed;
    model_ = TrainableGnn::Create(config).value();
    opt_ = std::make_unique<Sgd>(kLearningRate);
    for (Parameter* p : model_->Parameters()) opt_->Register(p);
  }

  size_t num_ops() const override { return epochs_ * batches_.size(); }

  CheckCount PreCheck() override { return {}; }

  bool RunOp(size_t i, Tracer* tracer) override {
    const Minibatch& mb = batches_[i % batches_.size()];
    Tape tape;
    ValueId loss;
    {
      ScopedSpan span(tracer, Layer::kGnnForward);
      loss = tape.SoftmaxCrossEntropy(model_->GraphLogits(&tape, mb.batch),
                                      mb.labels);
    }
    {
      ScopedSpan span(tracer, Layer::kAutodiffStep);
      opt_->ZeroGrad();
    }
    {
      ScopedSpan span(tracer, Layer::kAutodiffBackward);
      tape.Backward(loss);
    }
    {
      ScopedSpan span(tracer, Layer::kAutodiffStep);
      opt_->Step();
    }
    loss_ = tape.value(loss).At(0, 0);
    return true;
  }

  // The loss is finite, and the same at every step as in every pass.
  OpOutput CheckOp(size_t i) override {
    uint64_t bits = 0;
    std::memcpy(&bits, &loss_, sizeof(bits));
    return {std::isfinite(loss_), i, bits};
  }

  CheckCount FinishPass() override { return {}; }

 private:
  struct Minibatch {
    GraphBatch batch;
    std::vector<size_t> labels;
  };

  size_t epochs_;
  Molecules data_;
  std::vector<Minibatch> batches_;
  std::unique_ptr<TrainableGnn> model_;
  std::unique_ptr<Sgd> opt_;
  double loss_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainWorkload(uint64_t seed, const Sizes& sizes,
                                            Tracer* tracer) {
  return std::make_unique<TrainWorkload>(seed, sizes, tracer);
}

}  // namespace gelc::e2e
