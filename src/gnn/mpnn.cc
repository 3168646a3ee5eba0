#include "gnn/mpnn.h"

#include "base/logging.h"

namespace gelc {

const char* AggregationName(Aggregation agg) {
  switch (agg) {
    case Aggregation::kSum:
      return "sum";
    case Aggregation::kMean:
      return "mean";
    case Aggregation::kMax:
      return "max";
  }
  return "unknown";
}

MpnnModel::MpnnModel(std::vector<MpnnLayer> layers)
    : layers_(std::move(layers)) {
  GELC_CHECK(!layers_.empty());
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    GELC_CHECK(layers_[i].update.out_dim() * 2 ==
               layers_[i + 1].update.in_dim());
  }
  for (const MpnnLayer& l : layers_) {
    GELC_CHECK(l.update.in_dim() % 2 == 0);
  }
}

MpnnModel::MpnnModel(std::vector<MpnnLayer> layers, MpnnReadout readout)
    : MpnnModel(std::move(layers)) {
  GELC_CHECK(readout.mlp.in_dim() == layers_.back().update.out_dim());
  readout_ = std::move(readout);
}

Result<MpnnModel> MpnnModel::Random(const std::vector<size_t>& widths,
                                    Aggregation agg, double weight_scale,
                                    Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<MpnnLayer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    MpnnLayer l;
    l.agg = agg;
    GELC_ASSIGN_OR_RETURN(
        l.update,
        Mlp::Random({2 * widths[i], widths[i + 1], widths[i + 1]},
                    Activation::kReLU, Activation::kReLU, weight_scale, rng));
    layers.push_back(std::move(l));
  }
  MpnnReadout readout;
  // The readout pools with the same aggregator as the layers so that
  // "mean-MPNN" / "max-MPNN" classes are pure (slide 69's comparison).
  readout.pool = agg;
  GELC_ASSIGN_OR_RETURN(
      readout.mlp, Mlp::Random({widths.back(), widths.back()},
                               Activation::kReLU, Activation::kIdentity,
                               weight_scale, rng));
  return MpnnModel(std::move(layers), std::move(readout));
}

GinModel::GinModel(std::vector<GinLayer> layers, Mlp readout_mlp)
    : layers_(std::move(layers)), readout_mlp_(std::move(readout_mlp)) {
  GELC_CHECK(!layers_.empty());
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    GELC_CHECK(layers_[i].mlp.out_dim() == layers_[i + 1].mlp.in_dim());
  }
  GELC_CHECK(readout_mlp_.in_dim() == layers_.back().mlp.out_dim());
}

Result<GinModel> GinModel::Random(const std::vector<size_t>& widths,
                                  double weight_scale, Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<GinLayer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    GinLayer l;
    l.eps = rng->NextUniform(-0.1, 0.1);
    GELC_ASSIGN_OR_RETURN(
        l.mlp,
        Mlp::Random({widths[i], widths[i + 1], widths[i + 1]},
                    Activation::kReLU, Activation::kReLU, weight_scale, rng));
    layers.push_back(std::move(l));
  }
  GELC_ASSIGN_OR_RETURN(
      Mlp readout, Mlp::Random({widths.back(), widths.back()},
                               Activation::kReLU, Activation::kIdentity,
                               weight_scale, rng));
  return GinModel(std::move(layers), std::move(readout));
}

GcnModel::GcnModel(std::vector<Layer> layers) : layers_(std::move(layers)) {
  GELC_CHECK(!layers_.empty());
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    GELC_CHECK(layers_[i].w.cols() == layers_[i + 1].w.rows());
  }
}

Result<GcnModel> GcnModel::Random(const std::vector<size_t>& widths,
                                  double weight_scale, Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<Layer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    Layer l;
    l.w = Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale, rng);
    layers.push_back(std::move(l));
  }
  return GcnModel(std::move(layers));
}

GraphSageModel::GraphSageModel(std::vector<Layer> layers)
    : layers_(std::move(layers)) {
  GELC_CHECK(!layers_.empty());
  for (const Layer& l : layers_) {
    GELC_CHECK(l.w.rows() % 2 == 0);
    GELC_CHECK(l.b.rows() == 1 && l.b.cols() == l.w.cols());
  }
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    GELC_CHECK(layers_[i].w.cols() * 2 == layers_[i + 1].w.rows());
  }
}

Result<GraphSageModel> GraphSageModel::Random(
    const std::vector<size_t>& widths, double weight_scale, Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<Layer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    Layer l;
    l.w = Matrix::RandomGaussian(2 * widths[i], widths[i + 1], weight_scale,
                                 rng);
    l.b = Matrix::RandomGaussian(1, widths[i + 1], weight_scale, rng);
    layers.push_back(std::move(l));
  }
  return GraphSageModel(std::move(layers));
}

}  // namespace gelc
