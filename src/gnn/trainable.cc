#include "gnn/trainable.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

TrainableGnn::TrainableGnn(const Config& config, Rng* rng)
    : config_(config) {
  for (size_t i = 0; i + 1 < config.widths.size(); ++i) {
    size_t din = config.widths[i];
    size_t dout = config.widths[i + 1];
    auto layer = std::make_unique<Layer>(Layer{
        Parameter(Matrix::RandomGaussian(din, dout, config.init_scale, rng)),
        Parameter(Matrix::RandomGaussian(din, dout, config.init_scale, rng)),
        Parameter(Matrix::RandomGaussian(1, dout, config.init_scale, rng))});
    layers_.push_back(std::move(layer));
  }
  size_t hidden = config.widths.back();
  head_w_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(hidden, config.num_outputs, config.init_scale,
                             rng));
  head_b_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(1, config.num_outputs, config.init_scale, rng));
  pair_head_w_ = std::make_unique<Parameter>(Matrix::RandomGaussian(
      3 * hidden, config.num_outputs, config.init_scale, rng));
  pair_head_b_ = std::make_unique<Parameter>(
      Matrix::RandomGaussian(1, config.num_outputs, config.init_scale, rng));
}

Result<std::unique_ptr<TrainableGnn>> TrainableGnn::Create(
    const Config& config) {
  if (config.widths.size() < 2) {
    return Status::InvalidArgument("need input and at least one hidden width");
  }
  if (config.num_outputs == 0) {
    return Status::InvalidArgument("num_outputs must be positive");
  }
  Rng rng(config.seed);
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into unique_ptr
  return std::unique_ptr<TrainableGnn>(new TrainableGnn(config, &rng));
}

ValueId TrainableGnn::VertexEmbeddings(Tape* tape,
                                       const GraphBatch& batch) const {
  GELC_CHECK(batch.feature_dim() == config_.widths.front());
  const std::vector<size_t>& offsets = batch.vertex_offsets();
  ValueId f = tape->Input(batch.features());
  for (const auto& layer : layers_) {
    ValueId self = tape->MatMulSegments(f, tape->Param(&layer->w1), offsets);
    ValueId agg =
        tape->SparseMatMul(&batch.adjacency(), &batch.transpose(), f);
    ValueId nbr = tape->MatMulSegments(agg, tape->Param(&layer->w2), offsets);
    ValueId pre = tape->AddRowBroadcastSegments(
        tape->Add(self, nbr), tape->Param(&layer->b), offsets);
    f = tape->Act(config_.act, pre);
  }
  return f;
}

ValueId TrainableGnn::NodeLogits(Tape* tape, const GraphBatch& batch) const {
  ValueId z = VertexEmbeddings(tape, batch);
  return tape->AddRowBroadcast(tape->MatMul(z, tape->Param(head_w_.get())),
                               tape->Param(head_b_.get()));
}

ValueId TrainableGnn::GraphLogits(Tape* tape, const GraphBatch& batch) const {
  GELC_OBS_SCOPE("gnn.batch", {{"graphs", batch.num_graphs()},
                               {"vertices", batch.num_vertices()},
                               {"arcs", batch.num_arcs()}});
  ValueId z = VertexEmbeddings(tape, batch);
  // Row s of pooled carries the same bits as ColSums over block s alone.
  // The head is row-local per pooled row (one row per graph), so the
  // plain ops already accumulate head gradients in per-graph order.
  ValueId pooled = tape->SegmentSum(z, batch.vertex_offsets());
  return tape->AddRowBroadcast(
      tape->MatMul(pooled, tape->Param(head_w_.get())),
      tape->Param(head_b_.get()));
}

ValueId TrainableGnn::PairLogits(
    Tape* tape, const GraphBatch& batch,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) const {
  ValueId z = VertexEmbeddings(tape, batch);
  std::vector<size_t> us, vs;
  us.reserve(pairs.size());
  vs.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    us.push_back(u);
    vs.push_back(v);
  }
  ValueId zu = tape->GatherRows(z, us);
  ValueId zv = tape->GatherRows(z, vs);
  ValueId prod = tape->Hadamard(zu, zv);
  ValueId feats = tape->ConcatCols(tape->ConcatCols(zu, zv), prod);
  return tape->AddRowBroadcast(
      tape->MatMul(feats, tape->Param(pair_head_w_.get())),
      tape->Param(pair_head_b_.get()));
}

std::vector<Parameter*> TrainableGnn::Parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    out.push_back(&layer->w1);
    out.push_back(&layer->w2);
    out.push_back(&layer->b);
  }
  out.push_back(head_w_.get());
  out.push_back(head_b_.get());
  out.push_back(pair_head_w_.get());
  out.push_back(pair_head_b_.get());
  return out;
}

namespace {

std::vector<size_t> WidthsFor(size_t input_dim,
                              const std::vector<size_t>& hidden) {
  std::vector<size_t> widths = {input_dim};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  return widths;
}

// Builds one part's objective on `tape`, folds the part into
// `*epoch_loss` (0 at the start of each epoch; the value the epoch
// reports once every part has run) and returns the root that Backward
// differentiates.
using PartLoss =
    std::function<ValueId(Tape* tape, size_t part, double* epoch_loss)>;

// The ERM loop behind every trainer. Each epoch zeroes the gradients,
// runs forward and backward for each of `parts` parts on a fresh tape,
// takes one optimizer step and records the loss. Returns the loss
// history.
std::vector<double> RunEpochs(size_t epochs, size_t parts, Optimizer* opt,
                              const PartLoss& part_loss) {
  static obs::Counter* epoch_count = obs::GetCounter("train.epochs");
  static obs::Gauge* loss_gauge = obs::GetGauge("train.loss");
  std::vector<double> history;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    GELC_OBS_SCOPE("train.epoch", {{"epoch", epoch}});
    double epoch_loss = 0.0;
    opt->ZeroGrad();
    for (size_t part = 0; part < parts; ++part) {
      Tape tape;
      ValueId root = 0;
      {
        GELC_OBS_SCOPE("train.forward");
        root = part_loss(&tape, part, &epoch_loss);
      }
      GELC_OBS_SCOPE("train.backward");
      tape.Backward(root);
    }
    {
      GELC_OBS_SCOPE("train.step");
      opt->Step();
    }
    epoch_count->Increment();
    loss_gauge->Set(epoch_loss);
    history.push_back(epoch_loss);
  }
  return history;
}

// The trainers' datasets come from callers, so a malformed one is an
// InvalidArgument before any model is built: never an index check that
// aborts inside the tape, nor the NaN loss of an empty split.
Status CheckBelow(size_t value, size_t limit, const char* what) {
  if (value < limit) return Status::OK();
  return Status::InvalidArgument(std::string(what) + " " +
                                 std::to_string(value) + " not below " +
                                 std::to_string(limit));
}

Status ValidateNodeDataset(const NodeDataset& data) {
  const size_t n = data.graph.num_vertices();
  if (data.labels.size() != n || data.train_nodes.empty()) {
    return Status::InvalidArgument(
        "node dataset needs one label per vertex and a train split");
  }
  for (const std::vector<size_t>* split :
       {&data.train_nodes, &data.test_nodes}) {
    for (size_t v : *split) {
      GELC_RETURN_NOT_OK(CheckBelow(v, n, "node"));
      GELC_RETURN_NOT_OK(CheckBelow(data.labels[v], data.num_classes, "label"));
    }
  }
  return Status::OK();
}

Status ValidateGraphDataset(const GraphDataset& data) {
  if (data.graphs.empty() || data.labels.size() != data.graphs.size()) {
    return Status::InvalidArgument(
        "graph dataset needs graphs and one label per graph");
  }
  for (size_t label : data.labels) {
    GELC_RETURN_NOT_OK(CheckBelow(label, data.num_classes, "label"));
  }
  return Status::OK();
}

Status ValidateLinkDataset(const LinkDataset& data) {
  const size_t n = data.graph.num_vertices();
  if (data.train_pairs.empty()) {
    return Status::InvalidArgument("empty link dataset");
  }
  for (const auto& [pairs, labels] :
       {std::pair{&data.train_pairs, &data.train_labels},
        std::pair{&data.test_pairs, &data.test_labels}}) {
    if (labels->size() != pairs->size()) {
      return Status::InvalidArgument("link dataset needs one label per pair");
    }
    for (size_t i = 0; i < pairs->size(); ++i) {
      GELC_RETURN_NOT_OK(CheckBelow((*pairs)[i].first, n, "pair endpoint"));
      GELC_RETURN_NOT_OK(CheckBelow((*pairs)[i].second, n, "pair endpoint"));
      GELC_RETURN_NOT_OK(CheckBelow((*labels)[i], 2, "link label"));
    }
  }
  return Status::OK();
}

double Accuracy(const std::vector<size_t>& pred,
                const std::vector<size_t>& truth) {
  GELC_CHECK(pred.size() == truth.size());
  if (pred.empty()) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == truth[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace

Result<TrainReport> TrainNodeClassifier(const NodeDataset& data,
                                        const TrainOptions& options) {
  GELC_RETURN_NOT_OK(ValidateNodeDataset(data));
  TrainableGnn::Config cfg;
  cfg.widths = WidthsFor(data.graph.feature_dim(), options.hidden_widths);
  cfg.num_outputs = data.num_classes;
  cfg.seed = options.seed;
  GELC_ASSIGN_OR_RETURN(std::unique_ptr<TrainableGnn> model,
                        TrainableGnn::Create(cfg));
  Adam opt(options.learning_rate);
  for (Parameter* p : model->Parameters()) opt.Register(p);

  std::vector<size_t> train_labels;
  for (size_t v : data.train_nodes) train_labels.push_back(data.labels[v]);

  // The graph is a batch of one, packed once: every epoch tape and the
  // evaluation tape read its operators.
  GELC_ASSIGN_OR_RETURN(GraphBatch batch, GraphBatch::Create({&data.graph}));

  TrainReport report;
  report.loss_history = RunEpochs(
      options.epochs, 1, &opt, [&](Tape* tape, size_t, double* epoch_loss) {
        ValueId logits = model->NodeLogits(tape, batch);
        ValueId loss = tape->SoftmaxCrossEntropy(
            tape->GatherRows(logits, data.train_nodes), train_labels);
        *epoch_loss = tape->value(loss).At(0, 0);
        return loss;
      });

  // Evaluation pass.
  Tape tape;
  ValueId logits = model->NodeLogits(&tape, batch);
  std::vector<size_t> pred = RowArgmax(tape.value(logits));
  std::vector<size_t> train_pred, test_pred, test_labels;
  for (size_t v : data.train_nodes) train_pred.push_back(pred[v]);
  for (size_t v : data.test_nodes) {
    test_pred.push_back(pred[v]);
    test_labels.push_back(data.labels[v]);
  }
  report.train_accuracy = Accuracy(train_pred, train_labels);
  report.test_accuracy = Accuracy(test_pred, test_labels);
  return report;
}

Result<TrainReport> TrainGraphClassifier(const GraphDataset& data,
                                         const TrainOptions& options,
                                         double train_fraction) {
  GELC_RETURN_NOT_OK(ValidateGraphDataset(data));
  TrainableGnn::Config cfg;
  cfg.widths = WidthsFor(data.graphs[0].feature_dim(), options.hidden_widths);
  cfg.num_outputs = data.num_classes;
  cfg.seed = options.seed;
  GELC_ASSIGN_OR_RETURN(std::unique_ptr<TrainableGnn> model,
                        TrainableGnn::Create(cfg));
  Adam opt(options.learning_rate);
  for (Parameter* p : model->Parameters()) opt.Register(p);

  size_t train_count = static_cast<size_t>(
      train_fraction * static_cast<double>(data.graphs.size()));
  train_count = std::max<size_t>(1, std::min(train_count, data.graphs.size()));

  // Pre-pack the training split into block-diagonal minibatches once —
  // the graphs are immutable across epochs, so every epoch reuses the
  // same packed CSR operators and builds one tape per minibatch instead
  // of one per graph.
  size_t batch_size = options.batch_size == 0
                          ? train_count
                          : std::min(options.batch_size, train_count);
  struct Minibatch {
    GraphBatch batch;
    std::vector<size_t> labels;
  };
  std::vector<Minibatch> minibatches;
  for (size_t lo = 0; lo < train_count; lo += batch_size) {
    size_t hi = std::min(lo + batch_size, train_count);
    std::vector<const Graph*> members;
    std::vector<size_t> labels;
    for (size_t i = lo; i < hi; ++i) {
      members.push_back(&data.graphs[i]);
      labels.push_back(data.labels[i]);
    }
    GELC_ASSIGN_OR_RETURN(GraphBatch batch, GraphBatch::Create(members));
    minibatches.push_back(Minibatch{std::move(batch), std::move(labels)});
  }

  const size_t parts = minibatches.size();
  TrainReport report;
  report.loss_history = RunEpochs(
      options.epochs, parts, &opt,
      [&](Tape* tape, size_t part, double* epoch_loss) {
        const Minibatch& mb = minibatches[part];
        ValueId loss = tape->SoftmaxCrossEntropy(
            model->GraphLogits(tape, mb.batch), mb.labels);
        // SoftmaxCrossEntropy averages over the k batch rows; scaling the
        // root by k restores the sum-of-per-graph-gradients semantics the
        // per-graph loop had (one optimizer step per epoch, gradients
        // summed over the whole training split regardless of batch size).
        ValueId scaled =
            tape->Scale(loss, static_cast<double>(mb.batch.num_graphs()));
        // With a single minibatch its cross-entropy already is the mean
        // over the training split; reporting it directly keeps the loss
        // history bit-identical to the historical per-graph loop.
        if (parts == 1) {
          *epoch_loss = tape->value(loss).At(0, 0);
        } else {
          *epoch_loss += tape->value(scaled).At(0, 0);
          if (part + 1 == parts) {
            *epoch_loss /= static_cast<double>(train_count);
          }
        }
        return scaled;
      });

  // Batched evaluation: one forward over the whole dataset; row i of the
  // logits is bit-identical to graph i's forward as a batch of one.
  std::vector<const Graph*> all_graphs;
  all_graphs.reserve(data.graphs.size());
  for (const Graph& g : data.graphs) all_graphs.push_back(&g);
  GELC_ASSIGN_OR_RETURN(GraphBatch eval_batch,
                        GraphBatch::Create(all_graphs));
  Tape eval_tape;
  ValueId logits = model->GraphLogits(&eval_tape, eval_batch);
  std::vector<size_t> pred = RowArgmax(eval_tape.value(logits));
  std::vector<size_t> train_pred, train_truth, test_pred, test_truth;
  for (size_t i = 0; i < data.graphs.size(); ++i) {
    if (i < train_count) {
      train_pred.push_back(pred[i]);
      train_truth.push_back(data.labels[i]);
    } else {
      test_pred.push_back(pred[i]);
      test_truth.push_back(data.labels[i]);
    }
  }
  report.train_accuracy = Accuracy(train_pred, train_truth);
  report.test_accuracy = Accuracy(test_pred, test_truth);
  return report;
}

Result<TrainReport> TrainLinkPredictor(const LinkDataset& data,
                                       const TrainOptions& options) {
  GELC_RETURN_NOT_OK(ValidateLinkDataset(data));
  TrainableGnn::Config cfg;
  cfg.widths = WidthsFor(data.graph.feature_dim(), options.hidden_widths);
  cfg.num_outputs = 2;
  cfg.seed = options.seed;
  GELC_ASSIGN_OR_RETURN(std::unique_ptr<TrainableGnn> model,
                        TrainableGnn::Create(cfg));
  Adam opt(options.learning_rate);
  for (Parameter* p : model->Parameters()) opt.Register(p);

  // One pack for the whole run (see TrainNodeClassifier).
  GELC_ASSIGN_OR_RETURN(GraphBatch batch, GraphBatch::Create({&data.graph}));

  TrainReport report;
  report.loss_history = RunEpochs(
      options.epochs, 1, &opt, [&](Tape* tape, size_t, double* epoch_loss) {
        ValueId loss = tape->SoftmaxCrossEntropy(
            model->PairLogits(tape, batch, data.train_pairs),
            data.train_labels);
        *epoch_loss = tape->value(loss).At(0, 0);
        return loss;
      });

  auto eval = [&](const std::vector<std::pair<VertexId, VertexId>>& pairs,
                  const std::vector<size_t>& labels) {
    Tape tape;
    ValueId logits = model->PairLogits(&tape, batch, pairs);
    return Accuracy(RowArgmax(tape.value(logits)), labels);
  };
  report.train_accuracy = eval(data.train_pairs, data.train_labels);
  report.test_accuracy = eval(data.test_pairs, data.test_labels);
  return report;
}

}  // namespace gelc
