// Tests for the GEL query compiler (core/plan_compile.h), the plan IR
// (core/plan.h) and the fused executor (core/plan_exec.h):
//   - golden plan dumps witnessing CSE, guard pushdown and the opt-in
//     aggregation reorder;
//   - differential fuzz: compiled plans are bit-identical to
//     Evaluator::Eval at forced thread counts 1 and 4;
//   - one inference path: the model entry points of core/compile_gnn.h
//     equal the interpreter bit for bit for GNN-101, GIN, MPNN and
//     GraphSAGE, and GCN's direct lowering equals its SpMM reference;
//   - reused executor buffers: back-to-back plans, repeated plans, MLP
//     models lowered to fused layers, ID-GNN's per-vertex runs and
//     concurrent executions on pool workers all equal the interpreter,
//     and a warm run allocates only its result;
//   - the structural plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "base/parallel.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/plan.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "tensor/sparse.h"

namespace gelc {
namespace {

constexpr size_t kFeatureDim = 3;

Graph RandomFeatureGraph(Rng* rng, size_t max_n = 9) {
  size_t n = 3 + rng->NextBounded(max_n - 2);
  bool directed = rng->NextBernoulli(0.3);
  Graph g(n, kFeatureDim, directed);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (u == v || (!directed && v < u)) continue;
      if (rng->NextBernoulli(0.3)) {
        EXPECT_TRUE(g.AddEdge(static_cast<VertexId>(u),
                              static_cast<VertexId>(v))
                        .ok());
      }
    }
  }
  for (size_t v = 0; v < n; ++v) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      g.mutable_features().At(v, j) = rng->NextUniform(-1, 1);
    }
  }
  return g;
}

// Random well-typed expression inside the plannable fragment: free
// variables a subset of {var}, output dimension `dim`.
ExprPtr RandomPlanExpr(Rng* rng, Var var, size_t depth, size_t dim) {
  if (depth == 0) {
    if (dim == 1 && rng->NextBounded(2) == 0) {
      return *Expr::Label(rng->NextBounded(kFeatureDim), var);
    }
    std::vector<double> c(dim);
    for (double& x : c) x = rng->NextUniform(-1, 1);
    return *Expr::Constant(std::move(c));
  }
  switch (rng->NextBounded(8)) {
    case 0: {
      Activation acts[] = {Activation::kReLU, Activation::kTanh,
                           Activation::kSigmoid};
      return *Expr::Apply(omega::ActivationFn(acts[rng->NextBounded(3)], dim),
                          {RandomPlanExpr(rng, var, depth - 1, dim)});
    }
    case 1:
      return *Expr::Apply(omega::Add(dim),
                          {RandomPlanExpr(rng, var, depth - 1, dim),
                           RandomPlanExpr(rng, var, depth - 1, dim)});
    case 2:
      return *Expr::Apply(omega::Multiply(dim),
                          {RandomPlanExpr(rng, var, depth - 1, dim),
                           RandomPlanExpr(rng, var, depth - 1, dim)});
    case 3:
      return *Expr::Apply(omega::Scale(rng->NextUniform(-2, 2), dim),
                          {RandomPlanExpr(rng, var, depth - 1, dim)});
    case 4: {
      size_t arity = 1 + rng->NextBounded(2);
      std::vector<size_t> dims;
      std::vector<ExprPtr> children;
      size_t total = 0;
      for (size_t i = 0; i < arity; ++i) {
        size_t d = 1 + rng->NextBounded(3);
        dims.push_back(d);
        total += d;
        children.push_back(RandomPlanExpr(rng, var, depth - 1, d));
      }
      return *Expr::Apply(
          *omega::Linear(dims, Matrix::RandomGaussian(total, dim, 0.5, rng),
                         Matrix::RandomGaussian(1, dim, 0.5, rng)),
          std::move(children));
    }
    case 5: {
      size_t wide = dim + 1 + rng->NextBounded(2);
      size_t begin = rng->NextBounded(wide - dim + 1);
      return *Expr::Apply(*omega::Project(wide, begin, dim),
                          {RandomPlanExpr(rng, var, depth - 1, wide)});
    }
    case 6: {
      size_t in = 1 + rng->NextBounded(3);
      size_t hidden = 1 + rng->NextBounded(3);
      std::vector<MlpLayer> layers;
      layers.push_back({Matrix::RandomGaussian(in, hidden, 0.5, rng),
                        Matrix::RandomGaussian(1, hidden, 0.5, rng),
                        Activation::kReLU});
      layers.push_back({Matrix::RandomGaussian(hidden, dim, 0.5, rng),
                        Matrix::RandomGaussian(1, dim, 0.5, rng),
                        Activation::kIdentity});
      return *Expr::Apply(
          *omega::FromMlp({in}, Mlp(std::move(layers))),
          {RandomPlanExpr(rng, var, depth - 1, in)});
    }
    default: {
      Var bound = var == 0 ? 1 : 0;
      ExprPtr guard = rng->NextBounded(2) ? *Expr::Edge(var, bound)
                                          : *Expr::Edge(bound, var);
      size_t flavor = rng->NextBounded(4);
      if (flavor == 3 && dim == 1) {
        // Guarded count (degree-flavored); the value is ignored.
        size_t vd = 1 + rng->NextBounded(2);
        return *Expr::Aggregate(theta::Count(vd), VarBit(bound),
                                RandomPlanExpr(rng, bound, depth - 1, vd),
                                std::move(guard));
      }
      ThetaPtr agg = flavor == 2   ? theta::Max(dim)
                     : flavor == 1 ? theta::Mean(dim)
                                   : theta::Sum(dim);
      // Value over the bound variable (neighbor gather), the outer
      // variable (source gather) or closed (broadcast gather).
      size_t gather = rng->NextBounded(3);
      ExprPtr value;
      if (gather == 0) {
        value = RandomPlanExpr(rng, bound, depth - 1, dim);
      } else if (gather == 1) {
        value = RandomPlanExpr(rng, var, depth - 1, dim);
      } else {
        std::vector<double> c(dim);
        for (double& x : c) x = rng->NextUniform(-1, 1);
        value = *Expr::Constant(std::move(c));
      }
      return *Expr::Aggregate(std::move(agg), VarBit(bound),
                              std::move(value), std::move(guard));
    }
  }
}

ExprPtr DegreeExpr(Var outer, Var bound) {
  return *Expr::Aggregate(theta::Sum(1), VarBit(bound),
                          *Expr::Constant({1.0}),
                          *Expr::Edge(outer, bound));
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.At(i, j), b.At(i, j))
          << what << " differs at (" << i << "," << j << ")";
    }
  }
}

// -- Golden plan dumps -------------------------------------------------------

TEST(PlanDumpTest, DegreeGuardPushesDownToOutTraversal) {
  CompileStats stats;
  PlanPtr plan = *CompileToPlan(DegreeExpr(0, 1), PlanOptions{}, &stats);
  EXPECT_EQ(plan->ToString(),
            "%0 = const [1] : global[1]\n"
            "%1 = neighbor_agg sum out broadcast %0 : vertex[1]\n"
            "result: %1\n");
  EXPECT_EQ(stats.guard_pushdowns, 1u);
}

TEST(PlanDumpTest, ReversedGuardUsesInTraversal) {
  // E(x1, x0) with x1 bound: x1 ranges over in-neighbors of x0.
  ExprPtr e = *Expr::Aggregate(theta::Sum(1), VarBit(1),
                               *Expr::Constant({1.0}), *Expr::Edge(1, 0));
  PlanPtr plan = *CompileToPlan(e);
  EXPECT_EQ(plan->ToString(),
            "%0 = const [1] : global[1]\n"
            "%1 = neighbor_agg sum in broadcast %0 : vertex[1]\n"
            "result: %1\n");
}

TEST(PlanDumpTest, StructurallyIdenticalSubtreesShareOneSlot) {
  // Two independently built (pointer-distinct) degree aggregates: value
  // numbering collapses them to one neighbor_agg (CSE).
  ExprPtr e = *Expr::Apply(omega::Add(1), {DegreeExpr(0, 1), DegreeExpr(0, 1)});
  CompileStats stats;
  PlanPtr plan = *CompileToPlan(e, PlanOptions{}, &stats);
  EXPECT_EQ(plan->ToString(),
            "%0 = const [1] : global[1]\n"
            "%1 = neighbor_agg sum out broadcast %0 : vertex[1]\n"
            "%2 = add %1 %1 : vertex[1]\n"
            "result: %2\n");
  EXPECT_GE(stats.cse_hits, 2u);  // the const and the whole aggregate
}

TEST(PlanDumpTest, CseIsStructuralNotAlphaSensitive) {
  // Same aggregate with different binder names: binder minimization
  // canonicalizes both to the same plan ops.
  ExprPtr e = *Expr::Apply(omega::Add(1), {DegreeExpr(0, 1), DegreeExpr(0, 2)});
  CompileStats stats;
  PlanPtr plan = *CompileToPlan(e, PlanOptions{}, &stats);
  EXPECT_EQ(plan->ops.size(), 3u);
  EXPECT_GE(stats.cse_hits, 2u);
}

TEST(PlanDumpTest, AggregateOfLinearKeepsItsOrder) {
  // agg_sum(linear_nobias_{1->3}(lab0(x1)) | E(x0,x1)). Aggregating the
  // 1-wide input first would be cheaper and exact in real arithmetic, but
  // it reassociates floating point; the compiler keeps the written order
  // so the plan stays bit-identical to the interpreter.
  ExprPtr lin = *Expr::Apply(
      *omega::Linear({1}, Matrix({{0.5, -1.0, 2.0}}), Matrix(1, 3)),
      {*Expr::Label(0, 1)});
  ExprPtr e = *Expr::Aggregate(theta::Sum(3), VarBit(1), lin,
                               *Expr::Edge(0, 1));

  PlanPtr plan = *CompileToPlan(e);
  EXPECT_EQ(plan->ToString(),
            "%0 = load_labels cols=[0] : vertex[1]\n"
            "%1 = fused_layer [%0*w[1x3]] +bias : vertex[3]\n"
            "%2 = neighbor_agg sum out neighbor %1 : vertex[3]\n"
            "result: %2\n");
}

TEST(PlanCompileTest, RejectsPairTablesAndOddGuards) {
  // An edge atom used as a value is a pair table: not plannable.
  ExprPtr edge = *Expr::Edge(0, 1);
  EXPECT_FALSE(CompileToPlan(edge).ok());
  // Non-edge guard: falls back to the interpreter.
  ExprPtr guarded = *Expr::Aggregate(
      theta::Count(1), VarBit(1), *Expr::Constant({1.0}),
      *Expr::Apply(omega::Multiply(1),
                   {*Expr::Edge(0, 1), *Expr::Compare(0, 1, CmpOp::kNeq)}));
  EXPECT_FALSE(CompileToPlan(guarded).ok());
  // Two free variables: not a vertex table.
  ExprPtr two = *Expr::Apply(omega::Add(1),
                             {*Expr::Label(0, 0), *Expr::Label(0, 1)});
  EXPECT_FALSE(CompileToPlan(two).ok());
}

// -- Fusion witnesses --------------------------------------------------------

TEST(PlanFusionTest, Gnn101LayerAbsorbsAggregateAndActivation) {
  Rng rng(7);
  Gnn101Model model =
      *Gnn101Model::Random({kFeatureDim, 4, 4}, Activation::kReLU, 0.5, &rng);
  CompileStats stats;
  PlanPtr plan =
      *CompileToPlan(*CompileGnn101ToGel(model), PlanOptions{}, &stats);
  EXPECT_GE(stats.aggregate_absorptions, 2u);  // one per layer
  EXPECT_GE(stats.activation_fusions, 2u);
  std::string dump = plan->ToString();
  EXPECT_NE(dump.find("agg(sum,out,neighbor)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("act=relu"), std::string::npos) << dump;
  // No standalone aggregation or activation ops survive.
  EXPECT_EQ(dump.find("neighbor_agg"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("activation"), std::string::npos) << dump;
}

TEST(PlanFusionTest, GinCombineFusesScaleAddAndAggregate) {
  Rng rng(8);
  GinModel model = *GinModel::Random({kFeatureDim, 4, 4}, 0.5, &rng);
  CompileStats stats;
  PlanPtr plan =
      *CompileToPlan(*CompileGinToGel(model), PlanOptions{}, &stats);
  EXPECT_GE(stats.gin_fusions, 2u);
  EXPECT_NE(plan->ToString().find("gin_combine"), std::string::npos)
      << plan->ToString();
}

// A readout is a global pool whose only user is a global fused layer:
// the readout map with its bias and activation, run on the pooled row.
TEST(PlanFusionTest, ReadoutIsPoolThenGlobalFusedLayer) {
  Rng rng(9);
  Gnn101Model model =
      *Gnn101Model::Random({kFeatureDim, 4, 4}, Activation::kReLU, 0.5, &rng);
  PlanPtr plan = *CompileToPlan(*CompileGnn101GraphToGel(model));
  const PlanOp& head = plan->ops[plan->result];
  ASSERT_EQ(head.kind, PlanOpKind::kFusedLayer) << plan->ToString();
  EXPECT_FALSE(head.type.per_vertex);
  ASSERT_EQ(head.args.size(), 1u);
  EXPECT_FALSE(head.args[0].aggregated);
  EXPECT_EQ(*head.args[0].w, model.readout().w);
  ASSERT_NE(head.bias, nullptr);
  EXPECT_EQ(*head.bias, model.readout().b);
  EXPECT_EQ(head.act, model.readout().act);
  const uint32_t pool = head.args[0].input;
  EXPECT_EQ(plan->ops[pool].kind, PlanOpKind::kPool) << plan->ToString();
  EXPECT_EQ(plan->ops[pool].agg, ThetaAgg::Kind::kSum);
  size_t pool_users = 0;
  for (const PlanOp& op : plan->ops) {
    for (uint32_t in : op.inputs) pool_users += in == pool;
    for (const PlanLayerArg& a : op.args) pool_users += a.input == pool;
  }
  EXPECT_EQ(pool_users, 1u) << plan->ToString();
}

TEST(PlanFusionTest, LabelLoadsCoalesceIntoOneCopy) {
  Rng rng(10);
  Gnn101Model model =
      *Gnn101Model::Random({kFeatureDim, 4}, Activation::kReLU, 0.5, &rng);
  CompileStats stats;
  PlanPtr plan =
      *CompileToPlan(*CompileGnn101ToGel(model), PlanOptions{}, &stats);
  EXPECT_GE(stats.label_coalesces, 1u);
  EXPECT_NE(plan->ToString().find("load_labels cols=[0,1,2]"),
            std::string::npos)
      << plan->ToString();
}

// -- One inference path, one oracle ------------------------------------------
//
// The inference entry points of core/compile_gnn.h run compiled plans;
// every model family's vertex and graph embeddings equal the interpreter
// on the lowered expression, bit for bit.

void ExpectBitEqualClosed(const Matrix& row, const std::vector<double>& want,
                          const char* what) {
  ASSERT_EQ(row.rows(), 1u) << what;
  ASSERT_EQ(row.cols(), want.size()) << what;
  for (size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(row.At(0, j), want[j]) << what << " differs at " << j;
  }
}

TEST(PlanBitIdentityTest, Gnn101EntryPointsMatchInterpreter) {
  Rng rng(21);
  Gnn101Model model =
      *Gnn101Model::Random({kFeatureDim, 5, 4}, Activation::kReLU, 0.5, &rng);
  Graph g = RandomFeatureGraph(&rng);
  Evaluator ev(g);
  ExpectBitEqual(*VertexEmbeddings(model, g),
                 *ev.EvalVertex(*CompileGnn101ToGel(model)), "vertex");
  ExpectBitEqualClosed(*GraphEmbedding(model, g),
                       *ev.EvalClosed(*CompileGnn101GraphToGel(model)),
                       "readout");
}

TEST(PlanBitIdentityTest, GinEntryPointsMatchInterpreter) {
  Rng rng(22);
  GinModel model = *GinModel::Random({kFeatureDim, 4, 4}, 0.5, &rng);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = RandomFeatureGraph(&rng);
    Evaluator ev(g);
    ExpectBitEqual(*VertexEmbeddings(model, g),
                   *ev.EvalVertex(*CompileGinToGel(model)), "vertex");
    ExpectBitEqualClosed(*GraphEmbedding(model, g),
                         *ev.EvalClosed(*CompileGinGraphToGel(model)),
                         "sum-pool readout");
  }
}

TEST(PlanBitIdentityTest, MpnnEntryPointsMatchInterpreter) {
  // Mean readout included: θ-mean divides the pooled sum by n.
  for (Aggregation agg :
       {Aggregation::kSum, Aggregation::kMean, Aggregation::kMax}) {
    Rng rng(23 + static_cast<uint64_t>(agg));
    MpnnModel model =
        *MpnnModel::Random({kFeatureDim, 4, 4}, agg, 0.5, &rng);
    for (int trial = 0; trial < 3; ++trial) {
      Graph g = RandomFeatureGraph(&rng);
      Evaluator ev(g);
      ExpectBitEqual(*VertexEmbeddings(model, g),
                     *ev.EvalVertex(*CompileMpnnToGel(model)),
                     AggregationName(agg));
      ExpectBitEqualClosed(*GraphEmbedding(model, g),
                           *ev.EvalClosed(*CompileMpnnGraphToGel(model)),
                           AggregationName(agg));
    }
  }
}

TEST(PlanBitIdentityTest, GraphSageEntryPointMatchesInterpreter) {
  // The stacked W multiplies [self | mean] as two slices summed left to
  // right, exactly as omega's linear closure does.
  Rng rng(25);
  GraphSageModel model =
      *GraphSageModel::Random({kFeatureDim, 4, 3}, 0.5, &rng);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = RandomFeatureGraph(&rng);
    Evaluator ev(g);
    ExpectBitEqual(*VertexEmbeddings(model, g),
                   *ev.EvalVertex(*CompileGraphSageToGel(model)), "sage");
  }
}

TEST(PlanBitIdentityTest, GcnDirectLoweringMatchesSpMMReference) {
  // GCN has no GEL oracle (its propagation operator is weighted), so the
  // plan is pinned to the unfused reference act(SpMM(norm, H) · W).
  Rng rng(24);
  GcnModel model(
      {{Matrix::RandomGaussian(kFeatureDim, 4, 0.5, &rng), Activation::kReLU},
       {Matrix::RandomGaussian(4, 3, 0.5, &rng), Activation::kTanh}});
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = RandomFeatureGraph(&rng);
    Matrix want = g.features();
    for (const GcnModel::Layer& l : model.layers()) {
      want = ApplyActivation(l.act, SpMM(g.Csr().normalized(), want)
                                        .MatMul(l.w));
    }
    ExpectBitEqual(*VertexEmbeddings(model, g), want, "gcn");
  }
  PlanPtr plan = *CompileGcnToPlan(model);
  EXPECT_NE(plan->ToString().find("agg(sum,norm,neighbor)"),
            std::string::npos)
      << plan->ToString();
}

// -- Differential fuzz -------------------------------------------------------

class PlanDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanDifferentialFuzz, PlanBitIdenticalToInterpreterAtAnyThreadCount) {
  Rng rng(GetParam() * 92821 + 5);
  size_t dim = 1 + rng.NextBounded(3);
  ExprPtr e = RandomPlanExpr(&rng, 0, 1 + rng.NextBounded(3), dim);
  Graph g = RandomFeatureGraph(&rng);
  Evaluator ev(g);
  Result<PlanPtr> plan = CompileToPlan(e);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "\n"
                         << e->ToString();

  SetParallelThreadCount(1);
  Matrix serial = *ExecutePlan(**plan, g);
  SetParallelThreadCount(4);
  Matrix parallel = *ExecutePlan(**plan, g);
  SetParallelThreadCount(0);
  ExpectBitEqual(serial, parallel, e->ToString().c_str());
  // No rewrite reorders arithmetic: the straight lowering agrees too.
  PlanOptions raw;
  raw.optimize = false;
  Matrix unoptimized = *ExecutePlan(**CompileToPlan(e, raw, nullptr), g);
  ExpectBitEqual(serial, unoptimized, e->ToString().c_str());

  if (e->free_vars() == 0) {
    std::vector<double> ivec = *ev.EvalClosed(e);
    ASSERT_EQ(serial.rows(), 1u);
    ASSERT_EQ(serial.cols(), ivec.size());
    for (size_t j = 0; j < ivec.size(); ++j) {
      EXPECT_EQ(serial.At(0, j), ivec[j]) << e->ToString();
    }
  } else {
    Matrix interp = *ev.EvalVertex(e);
    ExpectBitEqual(interp, serial, e->ToString().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferentialFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

// -- Escape hatches and edge cases ------------------------------------------

TEST(PlanExecTest, OpaqueOmegaAndThetaStillExecuteBitEqual) {
  // A hand-rolled clamp function and a sum-of-squares aggregate, neither
  // known to the optimizer: the plan runs them through the original
  // closures and still matches the interpreter exactly.
  auto clamp = std::make_shared<OmegaFn>();
  clamp->name = "clamp";
  clamp->arg_dims = {1};
  clamp->out_dim = 1;
  clamp->fn = [](const std::vector<const double*>& args, double* out) {
    out[0] = std::min(1.0, std::max(-1.0, args[0][0]));
  };
  auto sqsum = std::make_shared<ThetaAgg>();
  sqsum->name = "sqsum";
  sqsum->in_dim = 1;
  sqsum->out_dim = 1;
  sqsum->init = [](double* acc) { acc[0] = 0.0; };
  sqsum->accumulate = [](double* acc, const double* x) {
    acc[0] += x[0] * x[0];
  };
  sqsum->finalize = [](double*, size_t) {};

  ExprPtr e = *Expr::Apply(
      OmegaPtr(clamp),
      {*Expr::Aggregate(ThetaPtr(sqsum), VarBit(1), *Expr::Label(0, 1),
                        *Expr::Edge(0, 1))});
  Rng rng(31);
  Graph g = RandomFeatureGraph(&rng);
  Evaluator ev(g);
  Matrix interp = *ev.EvalVertex(e);
  Matrix plan_out = *ExecutePlan(**CompileToPlan(e), g);
  ExpectBitEqual(interp, plan_out, "opaque ops");
}

// GIN and MPNN (their MLPs lower to fused layers; MPNN's two-argument
// update concatenates first), GNN-101, a bare label load (the result is
// the load_labels slot) and random queries, vertex and readout.
std::vector<std::pair<std::string, ExprPtr>> OracleExprs(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, ExprPtr>> exprs;
  GinModel gin = *GinModel::Random({kFeatureDim, 4, 4}, 0.5, &rng);
  exprs.emplace_back("gin", *CompileGinToGel(gin));
  exprs.emplace_back("gin readout", *CompileGinGraphToGel(gin));
  for (Aggregation agg :
       {Aggregation::kSum, Aggregation::kMean, Aggregation::kMax}) {
    MpnnModel mpnn = *MpnnModel::Random({kFeatureDim, 4, 4}, agg, 0.5, &rng);
    exprs.emplace_back(std::string("mpnn ") + AggregationName(agg),
                       *CompileMpnnToGel(mpnn));
    exprs.emplace_back(std::string("mpnn readout ") + AggregationName(agg),
                       *CompileMpnnGraphToGel(mpnn));
  }
  Gnn101Model gnn =
      *Gnn101Model::Random({kFeatureDim, 5, 4}, Activation::kReLU, 0.5, &rng);
  exprs.emplace_back("gnn101", *CompileGnn101ToGel(gnn));
  exprs.emplace_back("gnn101 readout", *CompileGnn101GraphToGel(gnn));
  exprs.emplace_back("label", *Expr::Label(1, 0));
  for (int i = 0; i < 4; ++i) {
    exprs.emplace_back("random " + std::to_string(i),
                       RandomPlanExpr(&rng, 0, 1 + rng.NextBounded(3),
                                      1 + rng.NextBounded(3)));
  }
  return exprs;
}

TEST(PlanExecTest, EmptyGraphAndIsolatedVertices) {
  // On the empty graph the interpreter answers too: a vertex query has
  // no rows and a readout aggregates the empty multiset. The plan agrees
  // with it bit for bit.
  Graph empty(0, kFeatureDim);
  Evaluator empty_ev(empty);
  std::vector<std::pair<std::string, ExprPtr>> exprs = OracleExprs(61);
  exprs.emplace_back("degree", DegreeExpr(0, 1));
  auto interpret = [&empty_ev](const ExprPtr& e) -> Result<Matrix> {
    if (e->free_vars() != 0) return empty_ev.EvalVertex(e);
    GELC_ASSIGN_OR_RETURN(std::vector<double> row, empty_ev.EvalClosed(e));
    return Matrix::RowVector(row);
  };
  for (const auto& [name, e] : exprs) {
    Result<Matrix> plan_out = ExecutePlan(**CompileToPlan(e), empty);
    ASSERT_TRUE(plan_out.ok()) << name;
    Result<Matrix> interp = interpret(e);
    ASSERT_TRUE(interp.ok()) << name << ": " << interp.status().ToString();
    EXPECT_EQ(interp->rows(), e->free_vars() != 0 ? 0u : 1u) << name;
    ExpectBitEqual(*interp, *plan_out, name.c_str());
  }
  // Max over an empty neighborhood finalizes to zero, like theta::Max.
  ExprPtr mx = *Expr::Aggregate(theta::Max(1), VarBit(1),
                                *Expr::Label(0, 1), *Expr::Edge(0, 1));
  Graph isolated(3, kFeatureDim);  // no edges at all
  for (size_t v = 0; v < 3; ++v) {
    isolated.mutable_features().At(v, 0) = -5.0;
  }
  Evaluator ev(isolated);
  Matrix interp = *ev.EvalVertex(mx);
  Matrix plan_out = *ExecutePlan(**CompileToPlan(mx), isolated);
  ExpectBitEqual(interp, plan_out, "isolated max");
  EXPECT_EQ(plan_out.At(0, 0), 0.0);
}

TEST(PlanExecTest, LabelIndexValidatedAtExecution) {
  ExprPtr e = *Expr::Label(2, 0);
  PlanPtr plan = *CompileToPlan(e);
  Graph narrow(3, 1);  // feature dim 1 < label index 2
  EXPECT_FALSE(ExecutePlan(*plan, narrow).ok());
}

// -- Reused buffers ----------------------------------------------------------
//
// ExecutePlan takes its slot outputs from buffers earlier executions on
// the same thread released, without zeroing them. Each case below runs
// where a stale buffer would show: after other plans wrote it.

// A compiled plan with its interpreter value on one graph.
struct Oracle {
  std::string name;
  PlanPtr plan;
  Matrix want;
};

Matrix InterpreterValue(Evaluator* ev, const ExprPtr& e) {
  if (e->free_vars() != 0) return *ev->EvalVertex(e);
  return Matrix::RowVector(*ev->EvalClosed(e));
}

// The OracleExprs queries, compiled, with their values on g.
std::vector<Oracle> ReuseOracles(const Graph& g, uint64_t seed) {
  Evaluator ev(g);
  std::vector<Oracle> out;
  for (auto& [name, e] : OracleExprs(seed)) {
    out.push_back({name, *CompileToPlan(e), InterpreterValue(&ev, e)});
  }
  return out;
}

TEST(PlanBufferReuseTest, BackToBackAndRepeatedPlansEqualInterpreter) {
  Rng rng(41);
  std::vector<Graph> graphs;
  graphs.push_back(RandomFeatureGraph(&rng, 12));
  graphs.push_back(RandomFeatureGraph(&rng, 9));
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    std::vector<Oracle> oracles = ReuseOracles(graphs[gi], 43 + gi);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreadCount(threads);
      // Round 0 runs every plan once after the others; round 1 runs
      // each twice in a row.
      for (int round = 0; round < 2; ++round) {
        for (const Oracle& o : oracles) {
          for (int rep = 0; rep <= round; ++rep) {
            Matrix got = *ExecutePlan(*o.plan, graphs[gi]);
            ExpectBitEqual(o.want, got, o.name.c_str());
          }
        }
      }
    }
    SetParallelThreadCount(0);
  }
}

TEST(PlanBufferReuseTest, IdGnnPerVertexRunsEqualInterpreter) {
  // ID-GNN executes its base plan once per marked vertex, each run on
  // the buffers the previous one released.
  Rng rng(47);
  IdGnnModel model =
      *IdGnnModel::Random({kFeatureDim, 4, 3}, Activation::kTanh, 0.5, &rng);
  ExprPtr base = *CompileGnn101ToGel(model.base());
  Graph g = RandomFeatureGraph(&rng, 10);
  const size_t n = g.num_vertices();
  Graph marked(n, kFeatureDim + 1, g.directed());
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (!g.directed() && v < u) continue;
      ASSERT_TRUE(marked.AddEdge(static_cast<VertexId>(u), v).ok());
    }
    for (size_t j = 0; j < kFeatureDim; ++j) {
      marked.mutable_features().At(u, j) = g.features().At(u, j);
    }
  }
  Matrix want(n, 3);
  for (size_t v = 0; v < n; ++v) {
    marked.mutable_features().At(v, kFeatureDim) = 1.0;
    Evaluator ev(marked);
    Matrix rows = *ev.EvalVertex(base);
    marked.mutable_features().At(v, kFeatureDim) = 0.0;
    for (size_t j = 0; j < want.cols(); ++j) want.At(v, j) = rows.At(v, j);
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetParallelThreadCount(threads);
    ExpectBitEqual(want, *VertexEmbeddings(model, g), "id-gnn");
  }
  SetParallelThreadCount(0);
}

TEST(PlanBufferReuseTest, ConcurrentExecutionsOnPoolWorkers) {
  // Many plans at once on the pool workers: each worker thread reuses
  // its own buffers, and every output still equals the interpreter.
  Rng rng(53);
  Graph g = RandomFeatureGraph(&rng, 12);
  (void)g.Csr();  // the first Csr() call builds the cache: not concurrent
  std::vector<Oracle> oracles = ReuseOracles(g, 59);
  const size_t tasks = 8 * oracles.size();
  std::vector<Matrix> got(tasks);
  SetParallelThreadCount(4);
  ParallelFor(0, tasks, 1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      got[t] = *ExecutePlan(*oracles[t % oracles.size()].plan, g);
    }
  });
  SetParallelThreadCount(0);
  for (size_t t = 0; t < tasks; ++t) {
    const Oracle& o = oracles[t % oracles.size()];
    ExpectBitEqual(o.want, got[t], o.name.c_str());
  }
}

TEST(PlanExecCountersTest, WarmRunAllocatesOnlyItsResult) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  Rng rng(61);
  Graph g = RandomFeatureGraph(&rng, 12);
  Gnn101Model a = *Gnn101Model::Random({kFeatureDim, 4, 4, 4},
                                       Activation::kReLU, 0.5, &rng);
  Gnn101Model b = *Gnn101Model::Random({kFeatureDim, 5, 5},
                                       Activation::kReLU, 0.5, &rng);
  PlanPtr plan_a = *CompileToPlan(*CompileGnn101ToGel(a));
  PlanPtr plan_b = *CompileToPlan(*CompileGnn101ToGel(b));
  auto allocs = [] { return obs::ReadCounter("plan.exec_buffer_allocs"); };
  auto reuses = [] { return obs::ReadCounter("plan.exec_buffer_reuses"); };

  // After plan b, this thread's list holds b's working set.
  (void)*ExecutePlan(*plan_b, g);
  uint64_t before = allocs();
  (void)*ExecutePlan(*plan_a, g);
  const uint64_t after_b = allocs() - before;
  EXPECT_GT(after_b, 1u);  // b's vertex[5] buffers fit no op of a

  // Warm: every slot but the result comes from the list.
  before = allocs();
  const uint64_t reuses_before = reuses();
  (void)*ExecutePlan(*plan_a, g);
  EXPECT_EQ(allocs() - before, 1u) << plan_a->ToString();
  EXPECT_EQ(reuses() - reuses_before, plan_a->ops.size() - 1);

  // The list keeps one execution's working set, not one per plan: after
  // plan b ran again, plan a allocates exactly as it did after b before.
  (void)*ExecutePlan(*plan_b, g);
  before = allocs();
  (void)*ExecutePlan(*plan_a, g);
  EXPECT_EQ(allocs() - before, after_b);
  obs::SetMetricsEnabled(metrics_were_on);
}

// -- Plan cache --------------------------------------------------------------

TEST(PlanCacheTest, AlphaEquivalentQueriesShareOnePlan) {
  PlanCache cache;
  // Same query with different binder names: one compilation, one entry.
  PlanPtr a = *cache.GetOrCompile(DegreeExpr(0, 1));
  PlanPtr b = *cache.GetOrCompile(DegreeExpr(0, 2));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A structurally different query compiles separately.
  ExprPtr other = *Expr::Aggregate(theta::Mean(1), VarBit(1),
                                   *Expr::Constant({1.0}),
                                   *Expr::Edge(0, 1));
  PlanPtr c = *cache.GetOrCompile(other);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCacheTest, NonPlannableExpressionsPropagateAndAreNotCached) {
  PlanCache cache;
  ExprPtr edge = *Expr::Edge(0, 1);
  EXPECT_FALSE(cache.GetOrCompile(edge).ok());
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace gelc
