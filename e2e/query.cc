// `query`: GEL query serving over one static graph. One op is one query:
// ParseExpr (text arrivals) or model lowering (model arrivals), then
// PlanCache::GetOrCompile, then ExecutePlan. The plan cache starts empty.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/parser.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "inputs.h"
#include "workloads.h"

namespace gelc::e2e {

namespace {

constexpr size_t kLabels = 4;
constexpr double kDegree = 8.0;
constexpr double kWeightScale = 0.5;
// Model weights are fixed, like a deployed model's; the seed draws the
// graph and the arrivals. (Activation costs depend on the values, so
// seeded weights would make op cost seed-dependent.)
constexpr uint64_t kModelSeed = 5;

// Arrival mix. Model queries are hot plans after their first arrival;
// text queries are cheap, and a third of them carry a fresh constant, so
// they take the cold parse + compile path. The 3 x 16 GNN-101 query is
// the dominant mode: the median falls well inside it.
constexpr double kGnnShare = 0.45;
constexpr double kGinShare = 0.15;
constexpr double kReadoutShare = 0.15;
constexpr double kFreshTextShare = 1.0 / 3.0;  // of text arrivals

// Text queries over the 4 one-hot labels: aggregations, 2-hop sums and
// readouts. Every one is inside the plannable fragment (PreCheck pins
// each plan to the interpreter).
const char* const kCatalogue[] = {
    "agg[sum]_{x1}(lab0(x1) | E(x0,x1))",
    "agg[mean]_{x1}(concat(lab1(x1), lab2(x1)) | E(x0,x1))",
    "agg[max]_{x1}(add(lab3(x1), lab0(x1)) | E(x0,x1))",
    "agg[sum]_{x1}(agg[sum]_{x0}(lab2(x0) | E(x1,x0)) | E(x0,x1))",
    "agg[sum]_{x0}(agg[sum]_{x1}(lab0(x1) | E(x0,x1)))",
    "agg[mean]_{x0}(tanh(agg[sum]_{x1}(concat(lab0(x1), lab3(x1)) | "
    "E(x0,x1))))",
};
// The same shapes with a constant slot ("{}"), filled per arrival.
const char* const kTemplates[] = {
    "relu(add(agg[sum]_{x1}(lab1(x1) | E(x0,x1)), [{}]))",
    "scale[{}](agg[mean]_{x1}(lab2(x1) | E(x0,x1)))",
    "agg[sum]_{x0}(mul(lab3(x0), [{}]))",
};

std::string Fill(const char* tmpl, double constant) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", constant);
  std::string text = tmpl;
  text.replace(text.find("{}"), 2, buf);
  return text;
}

enum class Model { kNone, kGnn, kGin, kReadout };

struct Arrival {
  Model model = Model::kNone;
  std::string text;  // text arrivals only
  uint64_t key = 0;  // identifies the query, for repeat checks
};

class QueryWorkload final : public Workload {
 public:
  QueryWorkload(uint64_t seed, const Sizes& sizes)
      : rng_(seed),
        model_rng_(kModelSeed),
        graph_(SparseLabelledGraph(sizes.query_n, kDegree, kLabels, &rng_)),
        gnn_(*Gnn101Model::Random({kLabels, 16, 16, 16}, Activation::kReLU,
                                  kWeightScale, &model_rng_)),
        gin_(*GinModel::Random({kLabels, 16, 16}, kWeightScale, &model_rng_)),
        readout_(*Gnn101Model::Random({kLabels, 16, 16}, Activation::kTanh,
                                      kWeightScale, &model_rng_)) {
    (void)graph_.Csr();  // the first CSR build is set-up, not a query
    arrivals_ = DrawArrivals(sizes.query_ops);
  }

  size_t num_ops() const override { return arrivals_.size(); }

  CheckCount PreCheck() override {
    Rng rng(rng_.NextU64());
    Evaluator eval(SparseLabelledGraph(48, 4.0, kLabels, &rng));
    CheckCount checks;
    auto check = [&](const Result<ExprPtr>& e) {
      checks.Add(e.ok() && MatchesInterpreter(*e, &eval));
    };
    for (const char* text : kCatalogue) check(ParseExpr(text));
    for (const char* tmpl : kTemplates) check(ParseExpr(Fill(tmpl, 0.5)));
    for (Model m : {Model::kGnn, Model::kGin, Model::kReadout}) {
      check(Lower(m));
    }
    return checks;
  }

  bool RunOp(size_t i, Tracer* tracer) override {
    const Arrival& a = arrivals_[i];
    Result<ExprPtr> expr = Status::Internal("unset");
    if (a.model == Model::kNone) {
      ScopedSpan span(tracer, Layer::kCoreParse);
      expr = ParseExpr(a.text);
    } else {
      ScopedSpan span(tracer, Layer::kCoreCompile);
      expr = Lower(a.model);
    }
    if (!expr.ok()) return false;
    Result<PlanPtr> plan = Status::Internal("unset");
    {
      ScopedSpan span(tracer, Layer::kCoreCompile);
      plan = cache_.GetOrCompile(*expr);
    }
    if (!plan.ok()) return false;
    ScopedSpan span(tracer, Layer::kCoreExec);
    Result<Matrix> out = ExecutePlan(**plan, graph_);
    if (!out.ok()) return false;
    result_ = std::move(*out);
    return true;
  }

  OpOutput CheckOp(size_t i) override {
    return {true, arrivals_[i].key, Digest(result_)};
  }

  CheckCount FinishPass() override { return {}; }

 private:
  // Fixed counts per kind, in a seeded order: the mix is the same for
  // every seed, the order and the drawn queries are not.
  std::vector<Arrival> DrawArrivals(size_t n) {
    auto count = [n](double share) {
      return static_cast<size_t>(share * static_cast<double>(n) + 0.5);
    };
    std::vector<Arrival> out;
    for (auto [model, share] : {std::pair{Model::kGnn, kGnnShare},
                                std::pair{Model::kGin, kGinShare},
                                std::pair{Model::kReadout, kReadoutShare}}) {
      Arrival a;
      a.model = model;
      a.key = static_cast<uint64_t>(model);
      out.insert(out.end(), std::min(count(share), n - out.size()), a);
    }
    const auto fresh = static_cast<size_t>(
        kFreshTextShare * static_cast<double>(n - out.size()) + 0.5);
    for (size_t i = 0; out.size() < n; ++i) {
      Arrival a;
      if (i < fresh) {
        const size_t t = rng_.NextBounded(std::size(kTemplates));
        a.text = Fill(kTemplates[t], rng_.NextUniform(0.1, 2.0));
      } else {
        a.text = kCatalogue[rng_.NextBounded(std::size(kCatalogue))];
      }
      a.key = Fnv1a64(a.text);
      out.push_back(std::move(a));
    }
    rng_.Shuffle(&out);
    return out;
  }

  Result<ExprPtr> Lower(Model m) const {
    switch (m) {
      case Model::kGnn:
        return CompileGnn101ToGel(gnn_);
      case Model::kGin:
        return CompileGinToGel(gin_);
      case Model::kReadout:
        return CompileGnn101GraphToGel(readout_);
      case Model::kNone:
        break;
    }
    return Status::InvalidArgument("not a model arrival");
  }

  // The compiled plan's output is bit-identical to the interpreter's.
  static bool MatchesInterpreter(const ExprPtr& e, Evaluator* eval) {
    Result<PlanPtr> plan = CompileToPlan(e);
    if (!plan.ok()) return false;
    Result<Matrix> out = ExecutePlan(**plan, eval->graph());
    if (!out.ok()) return false;
    if (e->free_vars() == 0) {
      Result<std::vector<double>> want = eval->EvalClosed(e);
      return want.ok() && SameBits(*out, Matrix::RowVector(*want));
    }
    Result<Matrix> want = eval->EvalVertex(e);
    return want.ok() && SameBits(*out, *want);
  }

  Rng rng_;
  Rng model_rng_;
  Graph graph_;
  Gnn101Model gnn_;      // 3 x 16 vertex query
  GinModel gin_;         // 2 x 16 vertex query
  Gnn101Model readout_;  // 2 x 16 graph query (with readout)
  std::vector<Arrival> arrivals_;
  PlanCache cache_;  // starts empty
  Matrix result_;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryWorkload(uint64_t seed,
                                            const Sizes& sizes) {
  return std::make_unique<QueryWorkload>(seed, sizes);
}

}  // namespace gelc::e2e
