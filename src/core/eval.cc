#include "core/eval.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "obs/metrics.h"

namespace gelc {

namespace {

// Number of assignments n^{|vars|}, or nullopt once it passes `cap`. On
// an empty graph a table with free variables has 0 rows, which is not an
// overflow.
std::optional<size_t> CountAssignments(size_t n, VarSet vars, size_t cap) {
  size_t total = 1;
  for (size_t i = 0; i < VarSetSize(vars); ++i) {
    if (n != 0 && total > cap / n) return std::nullopt;
    total *= n;
  }
  return total;
}

// Advances `assignment` (restricted to `vars`, treated as an odometer with
// the *last* listed variable fastest); returns false after the last one.
bool NextAssignment(const std::vector<Var>& vars, size_t n,
                    std::vector<VertexId>* assignment) {
  for (size_t i = vars.size(); i-- > 0;) {
    Var v = vars[i];
    if (static_cast<size_t>((*assignment)[v]) + 1 < n) {
      ++(*assignment)[v];
      return true;
    }
    (*assignment)[v] = 0;
  }
  return false;
}

bool AnyNonZero(const double* x, size_t d) {
  for (size_t j = 0; j < d; ++j)
    if (x[j] != 0.0) return true;
  return false;
}

}  // namespace

size_t EvalTable::FlatIndex(const std::vector<VertexId>& assignment) const {
  size_t idx = 0;
  for (Var v : VarSetList(vars)) {
    GELC_DCHECK(assignment[v] < n);
    idx = idx * n + assignment[v];
  }
  return idx;
}

const double* EvalTable::At(const std::vector<VertexId>& assignment) const {
  return data.data() + FlatIndex(assignment) * dim;
}

Evaluator::Evaluator(Graph g) : Evaluator(std::move(g), Options{}) {}

Evaluator::Evaluator(Graph g, Options options)
    : g_(std::move(g)), options_(options) {}

Result<EvalTable> Evaluator::Eval(const ExprPtr& e) {
  if (e == nullptr) return Status::InvalidArgument("null expression");
  uint64_t key = 0;
  if (options_.memoize) {
    static obs::Counter* hits = obs::GetCounter("eval.memo_hits");
    static obs::Counter* misses = obs::GetCounter("eval.memo_misses");
    key = e->StructuralHash();
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      for (const auto& [cached_expr, table] : it->second) {
        if (StructurallyEqual(cached_expr, e)) {
          hits->Increment();
          return table;
        }
      }
    }
    misses->Increment();
  }
  GELC_ASSIGN_OR_RETURN(EvalTable table, EvalUncached(e));
  if (options_.memoize) {
    memo_[key].emplace_back(e, table);
    ++memo_entries_;
  }
  return table;
}

Result<EvalTable> Evaluator::EvalUncached(const ExprPtr& e) {
  size_t n = g_.num_vertices();
  EvalTable out;
  out.vars = e->free_vars();
  out.n = n;
  out.dim = e->dim();
  std::optional<size_t> count =
      CountAssignments(n, out.vars, options_.max_table_entries);
  if (!count.has_value() ||
      *count > options_.max_table_entries / std::max<size_t>(out.dim, 1)) {
    return Status::OutOfRange("embedding table exceeds evaluator budget");
  }
  const size_t assignments = *count;
  out.data.assign(assignments * out.dim, 0.0);

  switch (e->kind()) {
    case Expr::Kind::kLabel: {
      if (e->label_index() >= g_.feature_dim()) {
        return Status::InvalidArgument(
            "label index exceeds graph feature dimension");
      }
      for (size_t v = 0; v < n; ++v)
        out.data[v] = g_.features().At(v, e->label_index());
      return out;
    }
    case Expr::Kind::kEdge: {
      // Ascending variable order determines the table layout; the first
      // listed variable is the slow index.
      bool a_first = e->var_a() < e->var_b();
      for (size_t x = 0; x < n; ++x) {
        for (size_t y = 0; y < n; ++y) {
          VertexId u = static_cast<VertexId>(a_first ? x : y);
          VertexId v = static_cast<VertexId>(a_first ? y : x);
          out.data[x * n + y] = g_.HasEdge(u, v) ? 1.0 : 0.0;
        }
      }
      return out;
    }
    case Expr::Kind::kCompare: {
      bool want_eq = e->cmp_op() == CmpOp::kEq;
      for (size_t x = 0; x < n; ++x)
        for (size_t y = 0; y < n; ++y)
          out.data[x * n + y] = ((x == y) == want_eq) ? 1.0 : 0.0;
      return out;
    }
    case Expr::Kind::kConst: {
      std::copy(e->constant().begin(), e->constant().end(), out.data.begin());
      return out;
    }
    case Expr::Kind::kApply: {
      std::vector<EvalTable> child_tables;
      child_tables.reserve(e->children().size());
      for (const ExprPtr& c : e->children()) {
        GELC_ASSIGN_OR_RETURN(EvalTable t, Eval(c));
        child_tables.push_back(std::move(t));
      }
      std::vector<Var> vars = VarSetList(out.vars);
      std::vector<VertexId> assignment(kMaxVariables, 0);
      std::vector<const double*> args(child_tables.size());
      size_t idx = 0;
      if (n == 0 && !vars.empty()) return out;
      do {
        for (size_t i = 0; i < child_tables.size(); ++i)
          args[i] = child_tables[i].At(assignment);
        e->fn()->fn(args, out.data.data() + idx * out.dim);
        ++idx;
      } while (NextAssignment(vars, n, &assignment));
      GELC_CHECK(idx == assignments);
      return out;
    }
    case Expr::Kind::kAggregate: {
      GELC_ASSIGN_OR_RETURN(EvalTable value, Eval(e->value()));
      EvalTable guard;
      bool has_guard = e->guard() != nullptr;
      if (has_guard) {
        GELC_ASSIGN_OR_RETURN(guard, Eval(e->guard()));
      }
      std::vector<Var> outer = VarSetList(out.vars);
      std::vector<Var> bound = VarSetList(e->bound_vars());
      std::vector<VertexId> assignment(kMaxVariables, 0);
      const ThetaAgg& theta = *e->agg();
      size_t idx = 0;
      if (n == 0) return out;
      // Iterate outer assignments; reset bound vars for each.
      std::vector<VertexId> outer_assignment(kMaxVariables, 0);
      do {
        for (Var v : bound) assignment[v] = 0;
        for (Var v : outer) assignment[v] = outer_assignment[v];
        double* acc = out.data.data() + idx * out.dim;
        theta.init(acc);
        size_t count = 0;
        do {
          bool include = true;
          if (has_guard) {
            include = AnyNonZero(guard.At(assignment), guard.dim);
          }
          if (include) {
            theta.accumulate(acc, value.At(assignment));
            ++count;
          }
        } while (NextAssignment(bound, n, &assignment));
        theta.finalize(acc, count);
        ++idx;
      } while (NextAssignment(outer, n, &outer_assignment));
      GELC_CHECK(idx == assignments);
      return out;
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<std::vector<double>> Evaluator::EvalClosed(const ExprPtr& e) {
  if (e != nullptr && e->free_vars() != 0) {
    return Status::InvalidArgument(
        "expression is not closed; free variables: " +
        VarSetToString(e->free_vars()));
  }
  GELC_ASSIGN_OR_RETURN(EvalTable t, Eval(e));
  return t.data;
}

Result<Matrix> Evaluator::EvalVertex(const ExprPtr& e) {
  if (e != nullptr && VarSetSize(e->free_vars()) != 1) {
    return Status::InvalidArgument(
        "expression is not a vertex embedding (needs exactly one free "
        "variable)");
  }
  GELC_ASSIGN_OR_RETURN(EvalTable t, Eval(e));
  size_t n = g_.num_vertices();
  Matrix out(n, t.dim);
  for (size_t v = 0; v < n; ++v)
    for (size_t j = 0; j < t.dim; ++j) out.At(v, j) = t.data[v * t.dim + j];
  return out;
}

}  // namespace gelc
