#include "core/compile_gnn.h"

#include <functional>
#include <map>
#include <utility>

#include "base/logging.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"

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

// Pools the vertex expression over x0 with `theta`, then applies the
// readout MLP: the closed readout of MPNN and GIN.
Result<ExprPtr> MlpReadout(ExprPtr vertex, ThetaPtr theta, const Mlp& mlp) {
  size_t d = vertex->dim();
  GELC_ASSIGN_OR_RETURN(
      ExprPtr pooled,
      Expr::Aggregate(std::move(theta), VarBit(0), std::move(vertex),
                      nullptr));
  GELC_ASSIGN_OR_RETURN(OmegaPtr mlp_fn, omega::FromMlp({d}, mlp));
  return Expr::Apply(std::move(mlp_fn), {std::move(pooled)});
}

Status CheckFeatureDim(size_t input_dim, const Graph& g) {
  if (g.feature_dim() != input_dim) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  return Status::OK();
}

Result<PlanPtr> CompileModel(const Result<ExprPtr>& lowered) {
  GELC_ASSIGN_OR_RETURN(ExprPtr e, lowered);
  return CompileToPlan(e);
}

// The one inference path: check the input width, lower (`lower` returns
// the model's plan), execute.
template <typename LowerFn>
Result<Matrix> Run(size_t input_dim, const Graph& g, LowerFn lower) {
  GELC_RETURN_NOT_OK(CheckFeatureDim(input_dim, g));
  GELC_ASSIGN_OR_RETURN(PlanPtr plan, lower());
  return ExecutePlan(*plan, g);
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
  const MpnnReadout& readout = *model.readout();
  ThetaPtr theta = ThetaFor(readout.pool, vertex->dim());
  return MlpReadout(std::move(vertex), std::move(theta), readout.mlp);
}

Result<ExprPtr> CompileGraphSageToGel(const GraphSageModel& model) {
  GenericLayerCompiler compiler(
      model.input_dim(), model.layers().size(),
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

Result<ExprPtr> CompileGinGraphToGel(const GinModel& model) {
  GELC_ASSIGN_OR_RETURN(ExprPtr vertex, CompileGinToGel(model));
  ThetaPtr theta = theta::Sum(vertex->dim());
  return MlpReadout(std::move(vertex), std::move(theta), model.readout_mlp());
}

Result<PlanPtr> CompileGcnToPlan(const GcnModel& model) {
  if (model.layers().empty()) {
    return Status::InvalidArgument("GCN model has no layers");
  }
  Plan plan;
  size_t in_dim = model.layers().front().w.rows();
  PlanOp load;
  load.kind = PlanOpKind::kLoadLabels;
  load.type = {true, static_cast<uint32_t>(in_dim)};
  for (size_t j = 0; j < in_dim; ++j) load.label_cols.push_back(j);
  plan.ops.push_back(std::move(load));
  uint32_t prev = 0;
  for (const GcnModel::Layer& layer : model.layers()) {
    if (layer.w.rows() != plan.ops[prev].type.dim) {
      return Status::InvalidArgument("GCN layer dimension mismatch");
    }
    PlanOp op;
    op.kind = PlanOpKind::kFusedLayer;
    op.type = {true, static_cast<uint32_t>(layer.w.cols())};
    PlanLayerArg arg;
    arg.input = prev;
    arg.w = std::make_shared<const Matrix>(layer.w);
    arg.aggregated = true;
    arg.agg = ThetaAgg::Kind::kSum;
    arg.csr = PlanCsr::kNorm;
    arg.gather = PlanGather::kNeighbor;
    op.args = {std::move(arg)};
    op.act = layer.act;
    plan.ops.push_back(std::move(op));
    prev = static_cast<uint32_t>(plan.ops.size() - 1);
  }
  plan.result = prev;
  return std::make_shared<const Plan>(std::move(plan));
}

Result<Matrix> VertexEmbeddings(const Gnn101Model& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileGnn101ToGel(model)); });
}

Result<Matrix> GraphEmbedding(const Gnn101Model& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileGnn101GraphToGel(model)); });
}

Result<Matrix> VertexEmbeddings(const GinModel& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileGinToGel(model)); });
}

Result<Matrix> GraphEmbedding(const GinModel& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileGinGraphToGel(model)); });
}

Result<Matrix> VertexEmbeddings(const MpnnModel& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileMpnnToGel(model)); });
}

Result<Matrix> GraphEmbedding(const MpnnModel& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileMpnnGraphToGel(model)); });
}

Result<Matrix> VertexEmbeddings(const GcnModel& model, const Graph& g) {
  return Run(model.input_dim(), g, [&] { return CompileGcnToPlan(model); });
}

Result<Matrix> VertexEmbeddings(const GraphSageModel& model, const Graph& g) {
  return Run(model.input_dim(), g,
             [&] { return CompileModel(CompileGraphSageToGel(model)); });
}

Result<Matrix> VertexEmbeddings(const IdGnnModel& model, const Graph& g) {
  const size_t d = model.graph_feature_dim();
  GELC_RETURN_NOT_OK(CheckFeatureDim(d, g));
  GELC_ASSIGN_OR_RETURN(PlanPtr plan,
                        CompileModel(CompileGnn101ToGel(model.base())));
  const size_t n = g.num_vertices();
  // Marked copy of g: same edges, features padded with a marker column.
  Graph marked(n, d + 1, g.directed());
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (!g.directed() && v < u) continue;
      GELC_RETURN_NOT_OK(marked.AddEdge(static_cast<VertexId>(u), v));
    }
    for (size_t j = 0; j < d; ++j)
      marked.mutable_features().At(u, j) = g.features().At(u, j);
  }
  Matrix out(n, model.base().layers().back().w1.cols());
  for (size_t v = 0; v < n; ++v) {
    marked.mutable_features().At(v, d) = 1.0;
    GELC_ASSIGN_OR_RETURN(Matrix f, ExecutePlan(*plan, marked));
    marked.mutable_features().At(v, d) = 0.0;
    for (size_t j = 0; j < out.cols(); ++j) out.At(v, j) = f.At(v, j);
  }
  return out;
}

Result<Matrix> GraphEmbedding(const IdGnnModel& model, const Graph& g) {
  GELC_ASSIGN_OR_RETURN(Matrix f, VertexEmbeddings(model, g));
  return f.ColSums();
}

}  // namespace gelc
