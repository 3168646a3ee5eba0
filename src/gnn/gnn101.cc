#include "gnn/gnn101.h"

#include "base/logging.h"

namespace gelc {

Gnn101Model::Gnn101Model(std::vector<Gnn101Layer> layers)
    : layers_(std::move(layers)) {
  GELC_CHECK(!layers_.empty());
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Gnn101Layer& l = layers_[i];
    GELC_CHECK(l.w1.rows() == l.w2.rows() && l.w1.cols() == l.w2.cols());
    GELC_CHECK(l.b.rows() == 1 && l.b.cols() == l.w1.cols());
    if (i > 0) GELC_CHECK(layers_[i - 1].w1.cols() == l.w1.rows());
  }
}

Gnn101Model::Gnn101Model(std::vector<Gnn101Layer> layers,
                         Gnn101Readout readout)
    : Gnn101Model(std::move(layers)) {
  GELC_CHECK(readout.w.rows() == layers_.back().w1.cols());
  GELC_CHECK(readout.b.rows() == 1 && readout.b.cols() == readout.w.cols());
  readout_ = std::move(readout);
  has_readout_ = true;
}

Result<Gnn101Model> Gnn101Model::Random(const std::vector<size_t>& widths,
                                        Activation act, double weight_scale,
                                        Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<Gnn101Layer> layers;
  for (size_t i = 0; i + 1 < widths.size(); ++i) {
    Gnn101Layer l;
    l.w1 = Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale, rng);
    l.w2 = Matrix::RandomGaussian(widths[i], widths[i + 1], weight_scale, rng);
    l.b = Matrix::RandomGaussian(1, widths[i + 1], weight_scale, rng);
    l.act = act;
    layers.push_back(std::move(l));
  }
  Gnn101Readout readout;
  size_t d = widths.back();
  readout.w = Matrix::RandomGaussian(d, d, weight_scale, rng);
  readout.b = Matrix::RandomGaussian(1, d, weight_scale, rng);
  readout.act = Activation::kIdentity;
  return Gnn101Model(std::move(layers), std::move(readout));
}

size_t Gnn101Model::input_dim() const { return layers_.front().w1.rows(); }

size_t Gnn101Model::output_dim() const {
  return has_readout_ ? readout_.w.cols() : layers_.back().w1.cols();
}

}  // namespace gelc
