#include "gnn/subgraph.h"

#include "base/logging.h"

namespace gelc {

IdGnnModel::IdGnnModel(Gnn101Model base, size_t graph_feature_dim)
    : base_(std::move(base)), graph_feature_dim_(graph_feature_dim) {
  GELC_CHECK(base_.input_dim() == graph_feature_dim_ + 1);
}

Result<IdGnnModel> IdGnnModel::Random(const std::vector<size_t>& widths,
                                      Activation act, double weight_scale,
                                      Rng* rng) {
  if (widths.size() < 2) {
    return Status::InvalidArgument("need at least input and one layer width");
  }
  std::vector<size_t> base_widths = widths;
  base_widths[0] += 1;  // marker column
  GELC_ASSIGN_OR_RETURN(Gnn101Model base,
                        Gnn101Model::Random(base_widths, act, weight_scale,
                                            rng));
  return IdGnnModel(std::move(base), widths[0]);
}

}  // namespace gelc
