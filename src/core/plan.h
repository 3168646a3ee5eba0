// The compiled-plan IR: a GEL expression lowered to a flat SSA-like
// sequence of typed tensor ops over vertex tables (core/plan_compile.h
// builds it, core/plan_exec.h runs it).
//
// Each op produces one value slot, either a per-vertex table (n x dim) or
// a global row (1 x dim); ops reference earlier slots by index, so a plan
// is a DAG in topological order and structurally identical subexpressions
// share one slot (the compiler value-numbers emissions — CSE).
//
// The IR is deliberately tiny: a handful of structured ops the optimizer
// understands and can fuse (kFusedLayer / kGinCombine are the fused
// forms executed by tensor/fused.h in one CSR-row pass), plus
// opaque escape hatches (kPointwise, opaque-theta aggregation) that run
// the original Ω/Θ closures row by row, so any lowerable expression
// executes — optimization never changes which expressions compile.
//
// Determinism contract: every op writes disjoint output rows per shard
// and pins its accumulation order to the unfused reference kernels, so a
// plan produces bit-identical results to Evaluator::Eval at any thread
// count (tests/plan_test.cc enforces this differentially).
#ifndef GELC_CORE_PLAN_H_
#define GELC_CORE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/omega.h"
#include "core/theta.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace gelc {

/// Which CSR operator of the graph an aggregation traverses. Edge guards
/// compile to a traversal direction instead of an n x n guard table —
/// the guard-pushdown rewrite: E(o, b) binds b over out-neighbors of o
/// (kOut); E(b, o) over in-neighbors (kIn). kNorm is the weighted GCN
/// operator D̃^{-1/2}(A+I)D̃^{-1/2}, used by model lowerings only.
enum class PlanCsr : uint8_t { kOut, kIn, kNorm };

/// Which row of the value table each bag element reads during an
/// aggregation at vertex v, mirroring the interpreter's fold:
///   kNeighbor  — the neighbor u's row (value depends on the bound var)
///   kSource    — v's own row, once per neighbor (value depends only on
///                the outer var)
///   kBroadcast — row 0 of a global table, once per neighbor (closed
///                value)
enum class PlanGather : uint8_t { kNeighbor, kSource, kBroadcast };

enum class PlanOpKind : uint8_t {
  kLoadLabels,   // copy feature columns `label_cols` -> vertex[len]
  kConstant,     // materialize `constant` -> global[d]
  kConcat,       // concatenate input rows
  kProject,      // components [project_begin, project_begin+project_len)
  kScale,        // scale * x, entrywise
  kAdd,          // x + y, entrywise
  kMul,          // x * y, entrywise (Hadamard)
  kActivation,   // act(x), entrywise
  kPointwise,    // opaque Ω closure applied row by row (escape hatch)
  kNeighborAgg,  // θ over each vertex's csr row -> vertex[agg out dim]
  kPool,         // θ over all n rows (global aggregation) -> global
  kFusedLayer,   // act(Σ_i arg_i(v) W_i + b), aggregations inlined
  kGinCombine,   // scale * x(v) + Σ_{u in N(v)} x(u), one CSR pass
};

/// Value type of a slot: a per-vertex table (n rows) or a global row.
struct PlanType {
  bool per_vertex = false;
  uint32_t dim = 0;

  bool operator==(const PlanType& o) const {
    return per_vertex == o.per_vertex && dim == o.dim;
  }
};

/// One argument of a kFusedLayer: a value slot feeding a weight slice,
/// optionally aggregated over a CSR row first (so the layer consumes the
/// neighborhood without materializing the n x d aggregate).
struct PlanLayerArg {
  uint32_t input = 0;
  std::shared_ptr<const Matrix> w;  // d_arg x out_dim slice
  bool aggregated = false;
  ThetaAgg::Kind agg = ThetaAgg::Kind::kSum;
  PlanCsr csr = PlanCsr::kOut;
  PlanGather gather = PlanGather::kNeighbor;
};

/// One IR op. A tagged union kept flat (only the fields its kind names
/// are meaningful) so plans stay trivially copyable and dumpable.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kConstant;
  PlanType type;
  std::vector<uint32_t> inputs;

  std::vector<size_t> label_cols;        // kLoadLabels
  std::vector<double> constant;          // kConstant
  size_t project_begin = 0;              // kProject
  size_t project_len = 0;                // kProject
  double scale = 1.0;                    // kScale, kGinCombine
  Activation act = Activation::kIdentity;  // kActivation, fused ops
  OmegaPtr fn;                           // kPointwise
  ThetaPtr theta;                        // kNeighborAgg, kPool (closures)
  ThetaAgg::Kind agg = ThetaAgg::Kind::kSum;  // structured θ kind
  PlanCsr csr = PlanCsr::kOut;           // kNeighborAgg, kGinCombine
  PlanGather gather = PlanGather::kNeighbor;  // kNeighborAgg, kPool
  std::vector<PlanLayerArg> args;        // kFusedLayer
  std::shared_ptr<const Matrix> bias;    // kFusedLayer
};

const char* PlanOpKindName(PlanOpKind kind);
const char* PlanCsrName(PlanCsr csr);
const char* PlanGatherName(PlanGather gather);

/// A compiled plan: ops in topological order; slot `result` is the value
/// of the whole expression (an n x d matrix for a vertex embedding, a
/// 1 x d row for a closed expression).
struct Plan {
  std::vector<PlanOp> ops;
  uint32_t result = 0;
  /// Dimension of the result value.
  size_t result_dim() const { return ops[result].type.dim; }
  /// True when the result is a per-vertex table.
  bool per_vertex() const { return ops[result].type.per_vertex; }

  /// Stable multi-line dump ("%i = op ... : vertex[d]") used by the
  /// golden plan tests and the gelc_plan CLI.
  std::string ToString() const;
};

using PlanPtr = std::shared_ptr<const Plan>;

/// Calls fn(slot) for every input slot `op` reads, including fused-layer
/// argument slots (the traversal DCE and use-counting must agree on).
template <typename Fn>
void ForEachInput(const PlanOp& op, Fn&& fn) {
  for (uint32_t s : op.inputs) fn(s);
  for (const PlanLayerArg& a : op.args) fn(a.input);
}

}  // namespace gelc

#endif  // GELC_CORE_PLAN_H_
