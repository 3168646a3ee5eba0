#include "core/plan_compile.h"

#include <algorithm>
#include <map>
#include <string>

#include "base/hash.h"
#include "base/logging.h"
#include "core/rewrite.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// -- Content hashing for value numbering ------------------------------------

uint64_t HashMatrix(const Matrix* m) {
  if (m == nullptr) return 0;
  uint64_t h = Fnv1a64(m->data().data(), m->data().size() * sizeof(double));
  h = HashCombine(h, m->rows());
  return HashCombine(h, m->cols());
}

bool SameMatrix(const Matrix* a, const Matrix* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->rows() == b->rows() && a->cols() == b->cols() &&
         std::memcmp(a->data().data(), b->data().data(),
                     a->data().size() * sizeof(double)) == 0;
}

uint64_t HashOp(const PlanOp& op) {
  uint64_t h = Fnv1a64("planop");
  h = HashCombine(h, static_cast<uint64_t>(op.kind));
  h = HashCombine(h, op.type.per_vertex ? 1 : 0);
  h = HashCombine(h, op.type.dim);
  for (uint32_t s : op.inputs) h = HashCombine(h, s);
  for (size_t c : op.label_cols) h = HashCombine(h, c);
  if (!op.constant.empty()) {
    h = HashCombine(h, Fnv1a64(op.constant.data(),
                               op.constant.size() * sizeof(double)));
  }
  h = HashCombine(h, op.project_begin);
  h = HashCombine(h, op.project_len);
  uint64_t scale_bits;
  std::memcpy(&scale_bits, &op.scale, sizeof(scale_bits));
  h = HashCombine(h, scale_bits);
  h = HashCombine(h, static_cast<uint64_t>(op.act));
  // Opaque closures dedupe by identity only; everything structured dedupes
  // by content (the same policy as Expr::StructuralHash).
  if (op.fn != nullptr) h = HashCombine(h, OmegaStructuralHash(*op.fn));
  if (op.theta != nullptr) h = HashCombine(h, ThetaStructuralHash(*op.theta));
  h = HashCombine(h, static_cast<uint64_t>(op.agg));
  h = HashCombine(h, static_cast<uint64_t>(op.csr));
  h = HashCombine(h, static_cast<uint64_t>(op.gather));
  for (const PlanLayerArg& a : op.args) {
    h = HashCombine(h, a.input);
    h = HashCombine(h, HashMatrix(a.w.get()));
    h = HashCombine(h, a.aggregated ? 1 : 0);
    h = HashCombine(h, static_cast<uint64_t>(a.agg));
    h = HashCombine(h, static_cast<uint64_t>(a.csr));
    h = HashCombine(h, static_cast<uint64_t>(a.gather));
  }
  return HashCombine(h, HashMatrix(op.bias.get()));
}

bool SameOp(const PlanOp& a, const PlanOp& b) {
  if (a.kind != b.kind || !(a.type == b.type) || a.inputs != b.inputs ||
      a.label_cols != b.label_cols || a.project_begin != b.project_begin ||
      a.project_len != b.project_len || a.act != b.act || a.agg != b.agg ||
      a.csr != b.csr || a.gather != b.gather) {
    return false;
  }
  if (a.constant.size() != b.constant.size() ||
      (!a.constant.empty() &&
       std::memcmp(a.constant.data(), b.constant.data(),
                   a.constant.size() * sizeof(double)) != 0)) {
    return false;
  }
  uint64_t sa, sb;
  std::memcpy(&sa, &a.scale, sizeof(sa));
  std::memcpy(&sb, &b.scale, sizeof(sb));
  if (sa != sb) return false;
  if ((a.fn == nullptr) != (b.fn == nullptr)) return false;
  if (a.fn != nullptr && !OmegaStructurallyEqual(*a.fn, *b.fn)) return false;
  if ((a.theta == nullptr) != (b.theta == nullptr)) return false;
  if (a.theta != nullptr && !ThetaStructurallyEqual(*a.theta, *b.theta)) {
    return false;
  }
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    const PlanLayerArg& x = a.args[i];
    const PlanLayerArg& y = b.args[i];
    if (x.input != y.input || x.aggregated != y.aggregated ||
        x.agg != y.agg || x.csr != y.csr || x.gather != y.gather ||
        !SameMatrix(x.w.get(), y.w.get())) {
      return false;
    }
  }
  return SameMatrix(a.bias.get(), b.bias.get());
}

// -- Lowering ----------------------------------------------------------------

Status NotLowerable(const ExprPtr& e, const std::string& why) {
  return Status::Unimplemented("plan: " + why + " in " + e->ToString());
}

class Lowering {
 public:
  explicit Lowering(CompileStats* stats) : stats_(stats) {}

  // Lowers `e`, whose free variables must be empty or exactly
  // {VarBit(var)}; returns the slot holding its value (per-vertex table
  // indexed by `var`, or a global row for closed subexpressions).
  Result<uint32_t> Lower(const ExprPtr& e, Var var) {
    VarSet free = e->free_vars();
    if (free != 0 && free != VarBit(var)) {
      return NotLowerable(
          e, "subexpression over more than one free variable");
    }
    // Closed subexpressions lower identically under any variable context.
    auto key = std::make_pair(e.get(), free == 0 ? -1 : static_cast<int>(var));
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    GELC_ASSIGN_OR_RETURN(uint32_t slot, LowerUncached(e, var));
    memo_.emplace(key, slot);
    return slot;
  }

  Plan Take(uint32_t result) {
    plan_.result = result;
    return std::move(plan_);
  }

 private:
  Result<uint32_t> LowerUncached(const ExprPtr& e, Var var) {
    switch (e->kind()) {
      case Expr::Kind::kLabel: {
        PlanOp op;
        op.kind = PlanOpKind::kLoadLabels;
        op.type = {true, 1};
        op.label_cols = {e->label_index()};
        return Emit(std::move(op));
      }
      case Expr::Kind::kEdge:
        return NotLowerable(e, "edge atom used as a value (pair table)");
      case Expr::Kind::kCompare:
        return NotLowerable(e, "comparison atom (pair table)");
      case Expr::Kind::kConst: {
        PlanOp op;
        op.kind = PlanOpKind::kConstant;
        op.type = {false, static_cast<uint32_t>(e->dim())};
        op.constant = e->constant();
        return Emit(std::move(op));
      }
      case Expr::Kind::kApply:
        return LowerApply(e, var);
      case Expr::Kind::kAggregate:
        return LowerAggregate(e, var);
    }
    return Status::Internal("unreachable expression kind");
  }

  Result<uint32_t> LowerApply(const ExprPtr& e, Var var) {
    std::vector<uint32_t> inputs;
    inputs.reserve(e->children().size());
    for (const ExprPtr& c : e->children()) {
      GELC_ASSIGN_OR_RETURN(uint32_t s, Lower(c, var));
      inputs.push_back(s);
    }
    const OmegaFn& fn = *e->fn();
    PlanOp op;
    op.type = {e->free_vars() != 0, static_cast<uint32_t>(e->dim())};
    op.inputs = std::move(inputs);
    switch (fn.kind) {
      case OmegaFn::Kind::kConcat:
        op.kind = PlanOpKind::kConcat;
        break;
      case OmegaFn::Kind::kLinear: {
        // One fused-layer argument per Ω argument, with the weight split
        // into per-argument row slices — the same per-argument partial-sum
        // grouping as the linear closure, so the bits match.
        op.kind = PlanOpKind::kFusedLayer;
        size_t row = 0;
        for (size_t i = 0; i < fn.arg_dims.size(); ++i) {
          PlanLayerArg arg;
          arg.input = op.inputs[i];
          Matrix slice(fn.arg_dims[i], fn.out_dim);
          for (size_t r = 0; r < fn.arg_dims[i]; ++r, ++row) {
            for (size_t j = 0; j < fn.out_dim; ++j) {
              slice.At(r, j) = fn.weight->At(row, j);
            }
          }
          arg.w = std::make_shared<const Matrix>(std::move(slice));
          op.args.push_back(std::move(arg));
        }
        op.inputs.clear();
        op.bias = fn.bias;
        break;
      }
      case OmegaFn::Kind::kActivation:
        op.kind = PlanOpKind::kActivation;
        op.act = fn.act;
        break;
      case OmegaFn::Kind::kAdd:
        op.kind = PlanOpKind::kAdd;
        break;
      case OmegaFn::Kind::kMultiply:
        op.kind = PlanOpKind::kMul;
        break;
      case OmegaFn::Kind::kScale:
        op.kind = PlanOpKind::kScale;
        op.scale = fn.scale;
        break;
      case OmegaFn::Kind::kMlp:
        return LowerMlp(fn, std::move(op.inputs), op.type.per_vertex);
      case OmegaFn::Kind::kProject:
        op.kind = PlanOpKind::kProject;
        op.project_begin = fn.project_begin;
        op.project_len = fn.project_len;
        break;
      case OmegaFn::Kind::kOpaque:
        op.kind = PlanOpKind::kPointwise;
        op.fn = e->fn();
        break;
    }
    return Emit(std::move(op));
  }

  // An MLP is one fused layer per MLP layer: x -> act(x W + b), the
  // layer's own W, b (aliasing the MLP's storage) and activation. A
  // single-argument fold from zero over the whole input row is exactly
  // Mlp::Forward's MatMul-then-bias chain per cell. Several arguments
  // are concatenated first: one weight slice per argument would add the
  // per-argument partial sums instead, a different association.
  Result<uint32_t> LowerMlp(const OmegaFn& fn, std::vector<uint32_t> inputs,
                            bool per_vertex) {
    uint32_t x = inputs[0];
    if (inputs.size() > 1) {
      PlanOp concat;
      concat.kind = PlanOpKind::kConcat;
      concat.type = {per_vertex, static_cast<uint32_t>(fn.total_in_dim())};
      concat.inputs = std::move(inputs);
      GELC_ASSIGN_OR_RETURN(x, Emit(std::move(concat)));
    }
    for (const MlpLayer& l : fn.mlp->layers()) {
      PlanOp layer;
      layer.kind = PlanOpKind::kFusedLayer;
      layer.type = {per_vertex, static_cast<uint32_t>(l.w.cols())};
      PlanLayerArg arg;
      arg.input = x;
      arg.w = std::shared_ptr<const Matrix>(fn.mlp, &l.w);
      layer.args = {std::move(arg)};
      layer.bias = std::shared_ptr<const Matrix>(fn.mlp, &l.b);
      layer.act = l.act;
      GELC_ASSIGN_OR_RETURN(x, Emit(std::move(layer)));
    }
    return x;
  }

  Result<uint32_t> LowerAggregate(const ExprPtr& e, Var var) {
    if (VarSetSize(e->bound_vars()) != 1) {
      return NotLowerable(e, "multi-variable binder");
    }
    Var b = VarSetList(e->bound_vars())[0];
    const ThetaAgg& theta = *e->agg();
    const ExprPtr& value = e->value();

    if (e->guard() == nullptr) {
      // Global aggregation: every assignment of the bound variable is
      // included, so the count is n and the fold runs over all vertices.
      if (e->free_vars() != 0) {
        return NotLowerable(
            e, "unguarded aggregation with an outer free variable");
      }
      PlanOp op;
      op.kind = PlanOpKind::kPool;
      op.type = {false, static_cast<uint32_t>(theta.out_dim)};
      if (value->free_vars() == VarBit(b)) {
        GELC_ASSIGN_OR_RETURN(uint32_t s, Lower(value, b));
        op.inputs = {s};
        op.gather = PlanGather::kNeighbor;
      } else if (value->free_vars() == 0) {
        GELC_ASSIGN_OR_RETURN(uint32_t s, Lower(value, b));
        op.inputs = {s};
        op.gather = PlanGather::kBroadcast;
      } else {
        return NotLowerable(e, "aggregated value over a foreign variable");
      }
      op.agg = theta.kind;
      if (theta.kind == ThetaAgg::Kind::kOpaque) op.theta = e->agg();
      return Emit(std::move(op));
    }

    // Guarded aggregation: only edge guards compile (to a CSR traversal —
    // the guard pushdown; anything else falls back to the interpreter).
    const ExprPtr& guard = e->guard();
    if (guard->kind() != Expr::Kind::kEdge) {
      return NotLowerable(e, "non-edge guard");
    }
    Var p = guard->var_a();
    Var q = guard->var_b();
    if (p == q || (b != p && b != q)) {
      return NotLowerable(e, "guard does not relate the bound variable to "
                             "an outer variable");
    }
    Var o = b == p ? q : p;
    if (e->free_vars() != VarBit(o) || o != var) {
      return NotLowerable(e, "guard variable mismatch");
    }
    // E(o, b): b ranges over out-neighbors of o; E(b, o): in-neighbors.
    PlanCsr csr = b == q ? PlanCsr::kOut : PlanCsr::kIn;
    ++stats_->guard_pushdowns;

    PlanGather gather;
    Var value_var = b;
    if (value->free_vars() == VarBit(b)) {
      gather = PlanGather::kNeighbor;
    } else if (value->free_vars() == VarBit(o)) {
      gather = PlanGather::kSource;
      value_var = o;
    } else if (value->free_vars() == 0) {
      gather = PlanGather::kBroadcast;
    } else {
      return NotLowerable(e, "aggregated value over a pair of variables");
    }

    GELC_ASSIGN_OR_RETURN(uint32_t s, Lower(value, value_var));
    PlanOp op;
    op.kind = PlanOpKind::kNeighborAgg;
    op.type = {true, static_cast<uint32_t>(theta.out_dim)};
    op.inputs = {s};
    op.agg = theta.kind;
    if (theta.kind == ThetaAgg::Kind::kOpaque) op.theta = e->agg();
    op.csr = csr;
    op.gather = gather;
    return Emit(std::move(op));
  }

  // Appends the op, unless an identical op already exists (CSE).
  Result<uint32_t> Emit(PlanOp op) {
    if (plan_.ops.size() >= UINT32_MAX) {
      return Status::OutOfRange("plan too large");
    }
    uint64_t h = HashOp(op);
    auto it = values_.find(h);
    if (it != values_.end()) {
      for (uint32_t s : it->second) {
        if (SameOp(plan_.ops[s], op)) {
          ++stats_->cse_hits;
          return s;
        }
      }
    }
    uint32_t slot = static_cast<uint32_t>(plan_.ops.size());
    plan_.ops.push_back(std::move(op));
    values_[h].push_back(slot);
    return slot;
  }

  CompileStats* stats_;
  Plan plan_;
  std::map<std::pair<const Expr*, int>, uint32_t> memo_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> values_;
};

// -- Rewrite passes ----------------------------------------------------------

std::vector<uint32_t> UseCounts(const Plan& plan) {
  std::vector<uint32_t> uses(plan.ops.size(), 0);
  for (const PlanOp& op : plan.ops) {
    ForEachInput(op, [&uses](uint32_t s) { ++uses[s]; });
  }
  ++uses[plan.result];
  return uses;
}

// concat of pure label loads -> one multi-column load (the label columns
// are copied either way, so the bits cannot change).
void CoalesceLabels(Plan* plan, CompileStats* stats) {
  for (PlanOp& op : plan->ops) {
    if (op.kind != PlanOpKind::kConcat || op.inputs.empty()) continue;
    bool all_labels = true;
    for (uint32_t s : op.inputs) {
      if (plan->ops[s].kind != PlanOpKind::kLoadLabels) all_labels = false;
    }
    if (!all_labels) continue;
    std::vector<size_t> cols;
    for (uint32_t s : op.inputs) {
      const std::vector<size_t>& in_cols = plan->ops[s].label_cols;
      cols.insert(cols.end(), in_cols.begin(), in_cols.end());
    }
    op.kind = PlanOpKind::kLoadLabels;
    op.inputs.clear();
    op.label_cols = std::move(cols);
    ++stats->label_coalesces;
  }
}

// act(fused_layer(...)) -> fused_layer(..., act) when the layer has no
// other users: the activation applies entrywise after the bias either
// way. The activation op is remapped onto the layer's slot.
void FuseActivation(Plan* plan, CompileStats* stats,
                    std::vector<uint32_t>* remap) {
  std::vector<uint32_t> uses = UseCounts(*plan);
  for (size_t i = 0; i < plan->ops.size(); ++i) {
    PlanOp& op = plan->ops[i];
    if (op.kind != PlanOpKind::kActivation) continue;
    uint32_t in = op.inputs[0];
    PlanOp& prev = plan->ops[in];
    if (prev.kind != PlanOpKind::kFusedLayer ||
        prev.act != Activation::kIdentity || uses[in] != 1) {
      continue;
    }
    prev.act = op.act;
    (*remap)[i] = in;
    ++stats->activation_fusions;
  }
}

// fused_layer arguments that read a single-use structured neighbor_agg
// absorb the aggregation: the layer's kernel folds the CSR row into
// per-shard scratch exactly as the standalone aggregate would, then feeds
// the weight — same bits, one pass, no n x d temporary.
void AbsorbAggregates(Plan* plan, CompileStats* stats) {
  std::vector<uint32_t> uses = UseCounts(*plan);
  for (PlanOp& op : plan->ops) {
    if (op.kind != PlanOpKind::kFusedLayer) continue;
    for (PlanLayerArg& arg : op.args) {
      if (arg.aggregated) continue;
      const PlanOp& in = plan->ops[arg.input];
      if (in.kind != PlanOpKind::kNeighborAgg ||
          in.agg == ThetaAgg::Kind::kOpaque || uses[arg.input] != 1) {
        continue;
      }
      arg.aggregated = true;
      arg.agg = in.agg;
      arg.csr = in.csr;
      arg.gather = in.gather;
      arg.input = in.inputs[0];
      ++stats->aggregate_absorptions;
    }
  }
}

// add(scale(x, c), neighbor_agg(sum, x)) -> gin_combine(x, c): one CSR
// pass. scale computes c*x and the kernel x*c (IEEE multiplication
// commutes bitwise); the neighbor sum still folds into scratch before the
// final add, preserving the reference association.
void FuseGin(Plan* plan, CompileStats* stats) {
  std::vector<uint32_t> uses = UseCounts(*plan);
  for (PlanOp& op : plan->ops) {
    if (op.kind != PlanOpKind::kAdd) continue;
    const PlanOp& lhs = plan->ops[op.inputs[0]];
    const PlanOp& rhs = plan->ops[op.inputs[1]];
    if (lhs.kind != PlanOpKind::kScale ||
        rhs.kind != PlanOpKind::kNeighborAgg ||
        rhs.agg != ThetaAgg::Kind::kSum ||
        rhs.gather != PlanGather::kNeighbor ||
        rhs.csr == PlanCsr::kNorm ||
        lhs.inputs[0] != rhs.inputs[0] ||
        uses[op.inputs[0]] != 1 || uses[op.inputs[1]] != 1) {
      continue;
    }
    PlanOp fused;
    fused.kind = PlanOpKind::kGinCombine;
    fused.type = op.type;
    fused.inputs = {lhs.inputs[0]};
    fused.scale = lhs.scale;
    fused.csr = rhs.csr;
    op = std::move(fused);
    ++stats->gin_fusions;
  }
}

// Drops ops unreachable from the result and renumbers the survivors.
void EliminateDeadOps(Plan* plan, const std::vector<uint32_t>& remap) {
  // Resolve the activation-fusion remap first so liveness follows it.
  auto resolve = [&remap](uint32_t s) {
    while (remap[s] != s) s = remap[s];
    return s;
  };
  for (PlanOp& op : plan->ops) {
    for (uint32_t& s : op.inputs) s = resolve(s);
    for (PlanLayerArg& a : op.args) a.input = resolve(a.input);
  }
  plan->result = resolve(plan->result);

  std::vector<bool> live(plan->ops.size(), false);
  std::vector<uint32_t> stack = {plan->result};
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    if (live[s]) continue;
    live[s] = true;
    ForEachInput(plan->ops[s], [&stack](uint32_t in) {
      stack.push_back(in);
    });
  }
  std::vector<uint32_t> new_slot(plan->ops.size(), 0);
  std::vector<PlanOp> kept;
  kept.reserve(plan->ops.size());
  for (size_t i = 0; i < plan->ops.size(); ++i) {
    if (!live[i]) continue;
    new_slot[i] = static_cast<uint32_t>(kept.size());
    kept.push_back(std::move(plan->ops[i]));
  }
  for (PlanOp& op : kept) {
    for (uint32_t& s : op.inputs) s = new_slot[s];
    for (PlanLayerArg& a : op.args) a.input = new_slot[a.input];
  }
  plan->ops = std::move(kept);
  plan->result = new_slot[plan->result];
}

void Optimize(Plan* plan, CompileStats* stats) {
  CoalesceLabels(plan, stats);
  std::vector<uint32_t> remap(plan->ops.size());
  for (size_t i = 0; i < remap.size(); ++i) {
    remap[i] = static_cast<uint32_t>(i);
  }
  FuseActivation(plan, stats, &remap);
  EliminateDeadOps(plan, remap);
  AbsorbAggregates(plan, stats);
  FuseGin(plan, stats);
  std::vector<uint32_t> identity(plan->ops.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<uint32_t>(i);
  }
  EliminateDeadOps(plan, identity);
}

}  // namespace

Result<PlanPtr> CompileToPlan(const ExprPtr& e, const PlanOptions& options,
                              CompileStats* stats) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  if (VarSetSize(e->free_vars()) > 1) {
    return Status::Unimplemented(
        "plan: only closed or single-free-variable expressions compile");
  }
  CompileStats local;
  if (stats == nullptr) stats = &local;
  GELC_OBS_SCOPE("plan_compile", {{"tree_size", e->TreeSize()}});
  static obs::Counter* compiles = obs::GetCounter("plan.compile_calls");
  compiles->Increment();

  GELC_ASSIGN_OR_RETURN(ExprPtr minimized, MinimizeVariables(e));
  Var var = minimized->free_vars() == 0
                ? 0
                : VarSetList(minimized->free_vars())[0];
  Lowering lowering(stats);
  GELC_ASSIGN_OR_RETURN(uint32_t result, lowering.Lower(minimized, var));
  Plan plan = lowering.Take(result);
  stats->ops_before_opt = plan.ops.size();
  if (options.optimize) Optimize(&plan, stats);
  stats->ops_after_opt = plan.ops.size();
  static obs::Histogram* sizes =
      obs::GetHistogram("plan.ops", {1, 2, 4, 8, 16, 32, 64, 128});
  sizes->Observe(static_cast<int64_t>(plan.ops.size()));
  return std::make_shared<const Plan>(std::move(plan));
}

Result<PlanPtr> CompileToPlan(const ExprPtr& e) {
  return CompileToPlan(e, PlanOptions{}, nullptr);
}

Result<PlanPtr> PlanCache::GetOrCompile(const ExprPtr& e) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  static obs::Counter* cache_hits = obs::GetCounter("plan.cache_hits");
  static obs::Counter* cache_misses = obs::GetCounter("plan.cache_misses");
  // Key on the binder-minimized form so alpha-equivalent queries share a
  // plan (width-minimization reuse).
  GELC_ASSIGN_OR_RETURN(ExprPtr minimized, MinimizeVariables(e));
  uint64_t key = minimized->StructuralHash();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    for (const auto& [expr, plan] : it->second) {
      if (StructurallyEqual(expr, minimized)) {
        ++hits_;
        cache_hits->Increment();
        return plan;
      }
    }
  }
  ++misses_;
  cache_misses->Increment();
  GELC_ASSIGN_OR_RETURN(PlanPtr plan, CompileToPlan(minimized));
  cache_[key].emplace_back(minimized, plan);
  ++entries_;
  return plan;
}

}  // namespace gelc
