// gelc_plan: compile a textual GEL expression to a plan and show the IR.
//
//   gelc_plan [--no-opt] [--exec N] 'EXPR'
//
// Parses EXPR with the core/parser.h grammar, lowers it through the query
// compiler (core/plan_compile.h) and prints the unoptimized and optimized
// plans side by side with the rewrite statistics (--no-opt skips the
// rewrite passes for the second plan too). With --exec N the second plan
// additionally runs on a fixed-seed G(N, 10/N) graph (feature dimension
// 4, uniform features) and the result is cross-checked bit-for-bit
// against the Evaluator reference before the first rows are printed.
//
// Everything is seeded: for a fixed command line the output reproduces
// byte-for-byte.
#include <cstdio>
#include <cstring>
#include <string>

#include "base/rng.h"
#include "base/strings.h"
#include "core/eval.h"
#include "core/parser.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "graph/generators.h"

namespace gelc {
namespace {

constexpr size_t kFeatureDim = 4;

int Run(bool optimize, size_t exec_n, const std::string& text) {
  Result<ExprPtr> parsed = ParseExpr(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const ExprPtr& e = *parsed;
  std::printf("expr: %s\n", e->ToString().c_str());
  std::printf("dim: %zu  free vars: %s\n", e->dim(),
              e->free_vars() == 0 ? "(closed)"
                                  : VarSetToString(e->free_vars()).c_str());

  PlanOptions raw;
  raw.optimize = false;
  Result<PlanPtr> unopt = CompileToPlan(e, raw, nullptr);
  if (!unopt.ok()) {
    std::fprintf(stderr, "not plannable: %s\n",
                 unopt.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- lowered (no rewrites) --\n%s",
              (*unopt)->ToString().c_str());

  PlanOptions options;
  options.optimize = optimize;
  CompileStats stats;
  Result<PlanPtr> plan = CompileToPlan(e, options, &stats);
  if (!plan.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- optimized --\n%s", (*plan)->ToString().c_str());
  std::printf(
      "\nops: %zu -> %zu  cse: %zu  guard pushdowns: %zu  label "
      "coalesces: %zu  activation fusions: %zu  aggregate absorptions: "
      "%zu  gin fusions: %zu\n",
      stats.ops_before_opt, stats.ops_after_opt, stats.cse_hits,
      stats.guard_pushdowns, stats.label_coalesces,
      stats.activation_fusions, stats.aggregate_absorptions,
      stats.gin_fusions);

  if (exec_n == 0) return 0;

  Rng rng(1);
  Graph g = RandomGnp(exec_n, 10.0 / static_cast<double>(exec_n), &rng);
  Graph fg(g.num_vertices(), kFeatureDim, g.directed());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (g.directed() || u < v) fg.AddEdge(u, v).IgnoreError();
    }
  }
  for (size_t v = 0; v < fg.num_vertices(); ++v) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      fg.mutable_features().At(v, j) = rng.NextUniform(-1, 1);
    }
  }
  Result<Matrix> out = ExecutePlan(**plan, fg);
  if (!out.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 out.status().ToString().c_str());
    return 1;
  }
  // Every plan, rewritten or not, promises bit-identity to the
  // interpreter; check it on the way out.
  Evaluator ev(fg);
  bool match = true;
  if (e->free_vars() == 0) {
    Result<std::vector<double>> ref = ev.EvalClosed(e);
    if (ref.ok()) {
      for (size_t j = 0; j < ref->size(); ++j) {
        if ((*ref)[j] != out->At(0, j)) match = false;
      }
    }
  } else {
    Result<Matrix> ref = ev.EvalVertex(e);
    if (ref.ok() && !(*ref == *out)) match = false;
  }
  if (!match) {
    std::fprintf(stderr, "BUG: plan result differs from interpreter\n");
    return 1;
  }
  std::printf("\n-- result on G(%zu, 10/n), first rows --\n", exec_n);
  const size_t show = out->rows() < 5 ? out->rows() : 5;
  for (size_t v = 0; v < show; ++v) {
    std::printf("%s%zu:", out->rows() > 1 ? "vertex " : "graph ", v);
    for (size_t j = 0; j < out->cols(); ++j) {
      std::printf(" %s", FormatDouble(out->At(v, j)).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace gelc

int main(int argc, char** argv) {
  bool optimize = true;
  size_t exec_n = 0;
  std::string text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-opt") == 0) {
      optimize = false;
    } else if (std::strcmp(argv[i], "--exec") == 0 && i + 1 < argc) {
      exec_n = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (text.empty()) {
      text = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (text.empty()) {
    std::fprintf(stderr,
                 "usage: gelc_plan [--no-opt] [--exec N] 'EXPR'\n");
    return 2;
  }
  return gelc::Run(optimize, exec_n, text);
}
