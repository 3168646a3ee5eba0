// Casting GNN architectures as GEL(Ω,Θ) expressions — the paper's "plan of
// action" (slide 35): view embedding methods as queries in the embedding
// language, then read off their expressive-power bound from the language
// fragment they land in.
//
// A GNN-101 model (slide 13) compiles to the guarded 2-variable MPNN
// fragment, and Analyze() on the result reports the color-refinement
// bound of slides 26/51. The same lowering is the only way to run a
// fixed-weight model: VertexEmbeddings / GraphEmbedding below lower the
// model, compile the expression (core/plan_compile.h) and execute the
// plan (core/plan_exec.h). The interpreter (core/eval.h) is the one
// oracle, and the plan is bit-identical to it at any thread count, so a
// network's output is, by construction, the value of its expression.
#ifndef GELC_CORE_COMPILE_GNN_H_
#define GELC_CORE_COMPILE_GNN_H_

#include "base/status.h"
#include "core/expr.h"
#include "core/plan.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "gnn/subgraph.h"
#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gelc {

/// Compiles a GNN-101 model into a vertex-embedding expression with free
/// variable x0. Aggregations bind x1 guarded by E(x0, x1); layer t's
/// update becomes act(linear(concat(ϕ^{t-1}(x0), agg(ϕ^{t-1}(x1))))).
Result<ExprPtr> CompileGnn101ToGel(const Gnn101Model& model);

/// Compiles the model's readout (slide 14) on top of the vertex
/// expression: a closed graph-embedding expression. Errors if the model
/// has no readout.
Result<ExprPtr> CompileGnn101GraphToGel(const Gnn101Model& model);

/// Compiles a GIN model to a vertex expression with free variable x0:
/// h' = mlp((1 + eps) * h + Σ_{u ∈ N(v)} h_u).
Result<ExprPtr> CompileGinToGel(const GinModel& model);

/// GIN's readout on top: sum-pool the vertex expression over x0, then the
/// readout MLP. A closed expression.
Result<ExprPtr> CompileGinGraphToGel(const GinModel& model);

/// Compiles a general MpnnModel (sum / mean / max aggregation) to a
/// vertex expression: h' = update_mlp(concat(h, agg_θ(h_u | E))).
/// Demonstrates slide 48: the zoo's layer definitions "translate
/// naturally into expressions in our language" for every θ ∈ Θ.
Result<ExprPtr> CompileMpnnToGel(const MpnnModel& model);

/// The MpnnModel's readout on top (pool + MLP): a closed expression.
/// Errors if the model has no readout.
Result<ExprPtr> CompileMpnnGraphToGel(const MpnnModel& model);

/// Compiles GraphSAGE (mean aggregator, linear update) to a vertex
/// expression.
Result<ExprPtr> CompileGraphSageToGel(const GraphSageModel& model);

/// Direct model lowering for GCN, whose normalized propagation operator
/// D̃^{-1/2}(A+I)D̃^{-1/2} is weighted and therefore not expressible as a
/// GEL edge guard: one fused layer per GCN layer over PlanCsr::kNorm.
/// Each layer is act(SpMM(norm, H) · W) in the SpMM-then-MatMul order
/// (pinned in tests/plan_test.cc; GCN has no GEL oracle).
Result<PlanPtr> CompileGcnToPlan(const GcnModel& model);

/// Fixed-weight inference. Every entry point first rejects a graph whose
/// feature dimension differs from the model's input (a plan reads label
/// columns by index, so a wider graph would otherwise be read silently),
/// then lowers the model, compiles it and executes the plan on `g`.
/// Vertex embeddings are n x d; graph embeddings are one 1 x d row.
/// GraphEmbedding errors if the model has no readout.
Result<Matrix> VertexEmbeddings(const Gnn101Model& model, const Graph& g);
Result<Matrix> GraphEmbedding(const Gnn101Model& model, const Graph& g);
Result<Matrix> VertexEmbeddings(const GinModel& model, const Graph& g);
Result<Matrix> GraphEmbedding(const GinModel& model, const Graph& g);
Result<Matrix> VertexEmbeddings(const MpnnModel& model, const Graph& g);
Result<Matrix> GraphEmbedding(const MpnnModel& model, const Graph& g);
Result<Matrix> VertexEmbeddings(const GcnModel& model, const Graph& g);
Result<Matrix> VertexEmbeddings(const GraphSageModel& model, const Graph& g);

/// ID-GNN (gnn/subgraph.h): the GNN-101 base compiles once and its plan
/// runs once per vertex v on g with v marked; row v is v's own row of
/// that run. The graph embedding sum-pools the rows.
Result<Matrix> VertexEmbeddings(const IdGnnModel& model, const Graph& g);
Result<Matrix> GraphEmbedding(const IdGnnModel& model, const Graph& g);

}  // namespace gelc

#endif  // GELC_CORE_COMPILE_GNN_H_
