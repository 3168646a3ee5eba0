// Executing compiled plans (core/plan.h) on a graph: a small bytecode
// VM over value slots. Structured ops dispatch to the fused kernels in
// tensor/fused.h (one CSR-row pass per fused layer); opaque ops run the
// original Ω/Θ closures row by row, so execution covers everything the
// compiler lowers.
//
// Contract: ExecutePlan(CompileToPlan(e), g) is bit-identical to
// Evaluator::Eval(e) at any thread count and SIMD tier
// (tests/plan_test.cc).
#ifndef GELC_CORE_PLAN_EXEC_H_
#define GELC_CORE_PLAN_EXEC_H_

#include "base/status.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gelc {

/// Runs the plan on `g`. Returns an n x d matrix for a per-vertex plan
/// (row v = the embedding of vertex v) or a 1 x d row for a closed plan.
/// Slot buffers come from, and return to, a free list owned by the
/// calling thread, so executions on different threads share nothing;
/// as for any shared Graph, build `g.Csr()` before running them at once.
Result<Matrix> ExecutePlan(const Plan& plan, const Graph& g);

}  // namespace gelc

#endif  // GELC_CORE_PLAN_EXEC_H_
