#include "core/compile_gnn.h"

#include <functional>
#include <map>
#include <utility>

#include "base/logging.h"

namespace gelc {

namespace {

// Stacks [w1; w2] so that linear([self | agg]) = self*w1 + agg*w2.
Matrix StackRows(const Matrix& w1, const Matrix& w2) {
  GELC_CHECK(w1.cols() == w2.cols());
  Matrix out(w1.rows() + w2.rows(), w1.cols());
  for (size_t i = 0; i < w1.rows(); ++i)
    for (size_t j = 0; j < w1.cols(); ++j) out.At(i, j) = w1.At(i, j);
  for (size_t i = 0; i < w2.rows(); ++i)
    for (size_t j = 0; j < w2.cols(); ++j)
      out.At(w1.rows() + i, j) = w2.At(i, j);
  return out;
}

// Initial embedding ϕ^(0)(x_v): concatenation of all label atoms.
Result<ExprPtr> InputExpr(size_t input_dim, Var v) {
  std::vector<ExprPtr> labels;
  for (size_t j = 0; j < input_dim; ++j) {
    GELC_ASSIGN_OR_RETURN(ExprPtr l, Expr::Label(j, v));
    labels.push_back(std::move(l));
  }
  if (labels.size() == 1) return labels[0];
  OmegaPtr concat = omega::Concat(std::vector<size_t>(input_dim, 1));
  return Expr::Apply(std::move(concat), std::move(labels));
}

ThetaPtr ThetaFor(Aggregation agg, size_t d) {
  switch (agg) {
    case Aggregation::kSum:
      return theta::Sum(d);
    case Aggregation::kMean:
      return theta::Mean(d);
    case Aggregation::kMax:
      return theta::Max(d);
  }
  return theta::Sum(d);
}

// Generic layered compiler over a per-layer callback:
//   layer_fn(layer_index, self_expr, agg_expr) -> new expr.
// The aggregation binds the other variable guarded by E(v, other), with
// the layer's aggregate over the previous embedding of the neighbor.
class GenericLayerCompiler {
 public:
  using LayerFn = std::function<Result<ExprPtr>(size_t, ExprPtr, ExprPtr)>;

  GenericLayerCompiler(size_t input_dim, size_t num_layers,
                       std::function<ThetaPtr(size_t, size_t)> theta_fn,
                       LayerFn layer_fn)
      : input_dim_(input_dim),
        num_layers_(num_layers),
        theta_fn_(std::move(theta_fn)),
        layer_fn_(std::move(layer_fn)) {}

  Result<ExprPtr> Build(size_t t, Var v) {
    auto key = std::make_pair(t, v);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    ExprPtr result;
    if (t == 0) {
      GELC_ASSIGN_OR_RETURN(result, InputExpr(input_dim_, v));
    } else {
      Var other = (v == 0) ? 1 : 0;
      GELC_ASSIGN_OR_RETURN(ExprPtr self, Build(t - 1, v));
      GELC_ASSIGN_OR_RETURN(ExprPtr nbr, Build(t - 1, other));
      size_t d_in = self->dim();
      GELC_ASSIGN_OR_RETURN(ExprPtr guard, Expr::Edge(v, other));
      GELC_ASSIGN_OR_RETURN(
          ExprPtr agg,
          Expr::Aggregate(theta_fn_(t - 1, d_in), VarBit(other),
                          std::move(nbr), std::move(guard)));
      GELC_ASSIGN_OR_RETURN(result,
                            layer_fn_(t - 1, std::move(self),
                                      std::move(agg)));
    }
    memo_.emplace(key, result);
    return result;
  }

  Result<ExprPtr> BuildAll() { return Build(num_layers_, 0); }

 private:
  size_t input_dim_;
  size_t num_layers_;
  std::function<ThetaPtr(size_t, size_t)> theta_fn_;
  LayerFn layer_fn_;
  std::map<std::pair<size_t, Var>, ExprPtr> memo_;
};

// act(linear(concat(self, agg))) with the stacked weight w and bias b —
// the update of GNN-101 and GraphSAGE layers.
Result<ExprPtr> LinearUpdate(ExprPtr self, ExprPtr agg, const Matrix& w,
                             const Matrix& b, Activation act) {
  size_t d_in = self->dim();
  GELC_ASSIGN_OR_RETURN(OmegaPtr lin, omega::Linear({d_in, d_in}, w, b));
  GELC_ASSIGN_OR_RETURN(
      ExprPtr pre,
      Expr::Apply(std::move(lin), {std::move(self), std::move(agg)}));
  return Expr::Apply(omega::ActivationFn(act, b.cols()), {std::move(pre)});
}

}  // namespace

Result<ExprPtr> CompileGnn101ToGel(const Gnn101Model& model) {
  GenericLayerCompiler compiler(
      model.input_dim(), model.num_layers(),
      [](size_t, size_t d) { return theta::Sum(d); },
      [&model](size_t layer, ExprPtr self, ExprPtr agg) -> Result<ExprPtr> {
        const Gnn101Layer& l = model.layers()[layer];
        return LinearUpdate(std::move(self), std::move(agg),
                            StackRows(l.w1, l.w2), l.b, l.act);
      });
  return compiler.BuildAll();
}

Result<ExprPtr> CompileGnn101GraphToGel(const Gnn101Model& model) {
  if (!model.has_readout()) {
    return Status::FailedPrecondition("model has no readout");
  }
  GELC_ASSIGN_OR_RETURN(ExprPtr vertex, CompileGnn101ToGel(model));
  size_t d = vertex->dim();
  GELC_ASSIGN_OR_RETURN(
      ExprPtr pooled,
      Expr::Aggregate(theta::Sum(d), VarBit(0), std::move(vertex), nullptr));
  const Gnn101Readout& r = model.readout();
  GELC_ASSIGN_OR_RETURN(OmegaPtr lin, omega::Linear({d}, r.w, r.b));
  GELC_ASSIGN_OR_RETURN(ExprPtr lin_e,
                        Expr::Apply(std::move(lin), {std::move(pooled)}));
  return Expr::Apply(omega::ActivationFn(r.act, r.w.cols()),
                     {std::move(lin_e)});
}

Result<ExprPtr> CompileMpnnToGel(const MpnnModel& model) {
  GenericLayerCompiler compiler(
      model.input_dim(), model.num_layers(),
      [&model](size_t layer, size_t d) {
        return ThetaFor(model.layers()[layer].agg, d);
      },
      [&model](size_t layer, ExprPtr self, ExprPtr agg) -> Result<ExprPtr> {
        size_t d_in = self->dim();
        GELC_ASSIGN_OR_RETURN(
            OmegaPtr mlp_fn,
            omega::FromMlp({d_in, d_in}, model.layers()[layer].update));
        return Expr::Apply(std::move(mlp_fn),
                           {std::move(self), std::move(agg)});
      });
  return compiler.BuildAll();
}

Result<ExprPtr> CompileMpnnGraphToGel(const MpnnModel& model) {
  if (!model.has_readout()) {
    return Status::FailedPrecondition("model has no readout");
  }
  GELC_ASSIGN_OR_RETURN(ExprPtr vertex, CompileMpnnToGel(model));
  size_t d = vertex->dim();
  const MpnnReadout& readout = *model.readout();
  GELC_ASSIGN_OR_RETURN(
      ExprPtr pooled,
      Expr::Aggregate(ThetaFor(readout.pool, d), VarBit(0),
                      std::move(vertex), nullptr));
  GELC_ASSIGN_OR_RETURN(OmegaPtr mlp_fn, omega::FromMlp({d}, readout.mlp));
  return Expr::Apply(std::move(mlp_fn), {std::move(pooled)});
}

Result<ExprPtr> CompileGraphSageToGel(const GraphSageModel& model) {
  size_t input_dim = model.layers().front().w.rows() / 2;
  GenericLayerCompiler compiler(
      input_dim, model.layers().size(),
      [](size_t, size_t d) { return theta::Mean(d); },
      [&model](size_t layer, ExprPtr self, ExprPtr agg) -> Result<ExprPtr> {
        const GraphSageModel::Layer& l = model.layers()[layer];
        return LinearUpdate(std::move(self), std::move(agg), l.w, l.b, l.act);
      });
  return compiler.BuildAll();
}

Result<ExprPtr> CompileGinToGel(const GinModel& model) {
  GenericLayerCompiler compiler(
      model.input_dim(), model.layers().size(),
      [](size_t, size_t d) { return theta::Sum(d); },
      [&model](size_t layer, ExprPtr self, ExprPtr agg) -> Result<ExprPtr> {
        // The GIN combine: mlp((1 + eps) * self + Σ nbr).
        const GinLayer& l = model.layers()[layer];
        size_t d_in = self->dim();
        GELC_ASSIGN_OR_RETURN(
            ExprPtr scaled,
            Expr::Apply(omega::Scale(1.0 + l.eps, d_in), {std::move(self)}));
        GELC_ASSIGN_OR_RETURN(
            ExprPtr combined,
            Expr::Apply(omega::Add(d_in), {std::move(scaled), std::move(agg)}));
        GELC_ASSIGN_OR_RETURN(OmegaPtr mlp_fn, omega::FromMlp({d_in}, l.mlp));
        return Expr::Apply(std::move(mlp_fn), {std::move(combined)});
      });
  return compiler.BuildAll();
}

}  // namespace gelc
