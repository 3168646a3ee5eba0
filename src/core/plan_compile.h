// Compiling GEL expressions to plans (core/plan.h).
//
// CompileToPlan lowers a normalized expression into the plan IR and runs
// the algebraic optimizer:
//
//   1. MinimizeVariables (core/rewrite.h) canonicalizes binder names —
//      plans and cache keys are shared across alpha-equivalent queries.
//   2. Lowering value-numbers every emitted op (CSE): structurally
//      identical subexpressions — across layers of an unrolled GNN, say —
//      collapse to one slot even when the Expr DAG does not share nodes.
//   3. Edge guards compile to a CSR traversal direction instead of an
//      n x n guard table (guard pushdown into aggregation).
//   4. Rewrite passes fuse the layer pipeline: label coalescing,
//      activation fusion, aggregate absorption into linear layers (one
//      CSR-row pass, no n x d aggregate temporary), GIN combine fusion,
//      then dead-code elimination. A readout stays a `pool` followed by a
//      global `fused_layer`: a fused pool-and-map op would run the same
//      two kernels.
//
// Lowering is partial by design: expressions outside the plannable
// fragment (pair tables, multi-variable binders, non-edge guards, opaque
// guards) return Unimplemented and the caller falls back to
// Evaluator::Eval. Whenever compilation succeeds, executing the plan is
// bit-identical to the interpreter at any thread count, with or without
// the rewrite passes: no rewrite reorders floating-point arithmetic.
//
// Fixed-weight GNNs run through this compiler: core/compile_gnn.h lowers
// each model family to GEL (GCN straight to a plan) and executes the
// result, so the plan executor is the one inference path.
#ifndef GELC_CORE_PLAN_COMPILE_H_
#define GELC_CORE_PLAN_COMPILE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "core/expr.h"
#include "core/plan.h"

namespace gelc {

struct PlanOptions {
  /// Run the rewrite passes. Off = straight lowering (still CSE'd), used
  /// by the golden tests to witness each rewrite's effect.
  bool optimize = true;
};

/// What the compiler did, for tests and the gelc_plan CLI.
struct CompileStats {
  size_t ops_before_opt = 0;
  size_t ops_after_opt = 0;
  size_t cse_hits = 0;         // emissions deduplicated by value numbering
  size_t guard_pushdowns = 0;  // edge guards turned into CSR traversals
  size_t label_coalesces = 0;
  size_t activation_fusions = 0;
  size_t aggregate_absorptions = 0;
  size_t gin_fusions = 0;
};

/// Compiles `e` (closed or single-free-variable) into a plan.
/// Unimplemented if `e` is outside the plannable fragment.
Result<PlanPtr> CompileToPlan(const ExprPtr& e, const PlanOptions& options,
                              CompileStats* stats);
Result<PlanPtr> CompileToPlan(const ExprPtr& e);

/// A keyed plan cache: structurally identical queries (after binder
/// minimization) compile once. Caller-owned and intentionally not
/// thread-safe — share per pipeline stage, not across threads (the
/// repo-wide mutex ban outside base/parallel and obs is deliberate).
class PlanCache {
 public:
  /// Returns the cached plan for any expression structurally equal to
  /// `e` modulo binder renaming, compiling on first sight. Propagates
  /// Unimplemented for non-plannable expressions (not cached).
  Result<PlanPtr> GetOrCompile(const ExprPtr& e);

  size_t size() const { return entries_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  // StructuralHash of the minimized expression -> bucket of
  // (minimized expression, plan); StructurallyEqual resolves collisions.
  std::unordered_map<uint64_t, std::vector<std::pair<ExprPtr, PlanPtr>>>
      cache_;
  size_t entries_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace gelc

#endif  // GELC_CORE_PLAN_COMPILE_H_
