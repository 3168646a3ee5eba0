// Tests for the GEL text syntax: parsing, validation errors, round trips
// through Expr::ToString, and semantic equality of round-tripped
// expressions (a property suite over randomly generated expressions).
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/eval.h"
#include "core/parser.h"
#include "graph/generators.h"

namespace gelc {
namespace {

TEST(ParserTest, Atoms) {
  ExprPtr lab = *ParseExpr("lab2(x1)");
  EXPECT_EQ(lab->kind(), Expr::Kind::kLabel);
  EXPECT_EQ(lab->label_index(), 2u);
  EXPECT_EQ(lab->free_vars(), VarBit(1));

  ExprPtr edge = *ParseExpr("E(x0, x1)");
  EXPECT_EQ(edge->kind(), Expr::Kind::kEdge);

  ExprPtr eq = *ParseExpr("1[x0=x1]");
  EXPECT_EQ(eq->kind(), Expr::Kind::kCompare);
  EXPECT_EQ(eq->cmp_op(), CmpOp::kEq);
  ExprPtr ne = *ParseExpr("1[x0!=x2]");
  EXPECT_EQ(ne->cmp_op(), CmpOp::kNeq);
}

TEST(ParserTest, Constants) {
  ExprPtr c = *ParseExpr("[1, -2.5, 3e2]");
  EXPECT_EQ(c->dim(), 3u);
  EXPECT_EQ(c->constant()[1], -2.5);
  EXPECT_EQ(c->constant()[2], 300.0);
}

TEST(ParserTest, FunctionApplications) {
  ExprPtr e = *ParseExpr("relu(add(lab0(x0), [1]))");
  EXPECT_EQ(e->kind(), Expr::Kind::kApply);
  EXPECT_EQ(e->dim(), 1u);
  ExprPtr cat = *ParseExpr("concat(lab0(x0), lab1(x0), [2, 3])");
  EXPECT_EQ(cat->dim(), 4u);
  ExprPtr sc = *ParseExpr("scale[2.5](lab0(x0))");
  EXPECT_EQ(sc->fn()->name, "scale[2.5]");
  ExprPtr pr = *ParseExpr("project[1,2]([5, 6, 7])");
  EXPECT_EQ(pr->dim(), 2u);
}

TEST(ParserTest, Aggregates) {
  ExprPtr deg = *ParseExpr("agg[sum]_{x1}([1] | E(x0,x1))");
  EXPECT_EQ(deg->kind(), Expr::Kind::kAggregate);
  EXPECT_EQ(deg->bound_vars(), VarBit(1));
  EXPECT_NE(deg->guard(), nullptr);

  ExprPtr global = *ParseExpr("agg[mean]_{x0}(lab0(x0))");
  EXPECT_EQ(global->free_vars(), 0u);
  EXPECT_EQ(global->guard(), nullptr);

  ExprPtr multi = *ParseExpr(
      "agg[count]_{x1,x2}([1] | mul(E(x0,x1), E(x1,x2)))");
  EXPECT_EQ(multi->bound_vars(), VarBit(1) | VarBit(2));
}

TEST(ParserTest, SemanticsMatchHandBuiltExpressions) {
  Graph star = StarGraph(4);
  Evaluator eval(star);
  Matrix deg = *eval.EvalVertex(*ParseExpr("agg[sum]_{x1}([1] | E(x0,x1))"));
  EXPECT_EQ(deg.At(0, 0), 4.0);
  EXPECT_EQ(deg.At(1, 0), 1.0);

  std::vector<double> n =
      *eval.EvalClosed(*ParseExpr("agg[sum]_{x0}([1])"));
  EXPECT_EQ(n[0], 5.0);
}

TEST(ParserTest, WhitespaceInsensitive) {
  ExprPtr a = *ParseExpr("agg[sum]_{x1}([1]|E(x0,x1))");
  ExprPtr b = *ParseExpr("  agg [ sum ] _ { x1 } ( [ 1 ] | E( x0 , x1 ) ) ");
  EXPECT_EQ(a->ToString(), b->ToString());
}

struct ParserErrorCase {
  const char* text;
  const char* why;
};

class ParserErrorTest : public ::testing::TestWithParam<ParserErrorCase> {};

TEST_P(ParserErrorTest, Rejected) {
  Result<ExprPtr> r = ParseExpr(GetParam().text);
  EXPECT_FALSE(r.ok()) << GetParam().why << " — parsed: "
                       << (r.ok() ? (*r)->ToString() : "");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        ParserErrorCase{"", "empty input"},
        ParserErrorCase{"E(x0)", "edge arity"},
        ParserErrorCase{"E(x0, x0)", "edge needs distinct vars"},
        ParserErrorCase{"lab(x0)", "label without index"},
        ParserErrorCase{"lab0(y0)", "not a variable"},
        ParserErrorCase{"lab0(x99)", "variable out of range"},
        ParserErrorCase{"add(lab0(x0))", "add arity"},
        ParserErrorCase{"add(lab0(x0), [1, 2])", "add dim mismatch"},
        ParserErrorCase{"frobnicate(lab0(x0))", "unknown function"},
        ParserErrorCase{"agg[median]_{x1}([1])", "unknown aggregator"},
        ParserErrorCase{"agg[sum]_{}([1])", "empty binder"},
        ParserErrorCase{"agg[sum]_{x1}([1]", "unclosed paren"},
        ParserErrorCase{"[1, 2] extra", "trailing input"},
        ParserErrorCase{"scale(lab0(x0))", "scale without parameter"},
        ParserErrorCase{"1[x0<x1]", "bad comparison operator"},
        ParserErrorCase{"[]", "empty constant"},
        ParserErrorCase{"lab99999999999999999999(x0)",
                        "label index out of range"},
        ParserErrorCase{"[1e999]", "constant overflows to inf"},
        ParserErrorCase{"[+inf]", "infinite constant"},
        ParserErrorCase{"[-nan]", "NaN constant"},
        ParserErrorCase{"scale[1e999](lab0(x0))",
                        "parameter overflows to inf"},
        ParserErrorCase{"project[-1,2](concat(lab0(x0), lab0(x0)))",
                        "negative project begin"},
        ParserErrorCase{"project[1,-1](concat(lab0(x0), lab0(x0)))",
                        "negative project length"},
        ParserErrorCase{"project[0.5,1](concat(lab0(x0), lab0(x0)))",
                        "fractional project begin"},
        ParserErrorCase{"project[1e300,1](concat(lab0(x0), lab0(x0)))",
                        "project begin beyond size_t"}));

// Nesting deep enough to overflow the stack returns a Status instead of
// crashing.
std::string NestedRelu(size_t depth) {
  std::string text;
  for (size_t i = 0; i < depth; ++i) text += "relu(";
  text += "lab0(x0)";
  text.append(depth, ')');
  return text;
}

TEST(ParserTest, DeepNestingIsRejected) {
  EXPECT_TRUE(ParseExpr(NestedRelu(100)).ok());
  EXPECT_FALSE(ParseExpr(NestedRelu(100000)).ok());
}

// Random-expression round-trip property: generate, print, reparse,
// compare semantics on a labelled graph.
class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

ExprPtr RandomParseableExpr(Rng* rng, size_t depth, size_t dim) {
  if (depth == 0) {
    switch (rng->NextBounded(3)) {
      case 0:
        if (dim == 1) return *Expr::Label(rng->NextBounded(2), 0);
        [[fallthrough]];
      case 1: {
        std::vector<double> v(dim);
        for (double& x : v) x = rng->NextUniform(-2, 2);
        return *Expr::Constant(std::move(v));
      }
      default: {
        if (dim == 1) {
          // deg-like aggregate.
          return *Expr::Aggregate(theta::Sum(1), VarBit(1),
                                  *Expr::Constant({1.0}),
                                  *Expr::Edge(0, 1));
        }
        std::vector<double> v(dim, 1.0);
        return *Expr::Constant(std::move(v));
      }
    }
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return *Expr::Apply(
          omega::ActivationFn(Activation::kReLU, dim),
          {RandomParseableExpr(rng, depth - 1, dim)});
    case 1:
      return *Expr::Apply(omega::Add(dim),
                          {RandomParseableExpr(rng, depth - 1, dim),
                           RandomParseableExpr(rng, depth - 1, dim)});
    case 2:
      return *Expr::Apply(omega::Scale(rng->NextUniform(-2, 2), dim),
                          {RandomParseableExpr(rng, depth - 1, dim)});
    default:
      return *Expr::Apply(omega::Multiply(dim),
                          {RandomParseableExpr(rng, depth - 1, dim),
                           RandomParseableExpr(rng, depth - 1, dim)});
  }
}

TEST_P(RoundTripTest, PrintParseSemanticEquality) {
  Rng rng(GetParam() * 40503);
  ExprPtr original = RandomParseableExpr(&rng, 1 + rng.NextBounded(3), 1);
  std::string text = original->ToString();
  Result<ExprPtr> reparsed = ParseExpr(text);
  ASSERT_TRUE(reparsed.ok()) << text << " -> " << reparsed.status();
  EXPECT_EQ((*reparsed)->ToString(), text);

  Graph g(6, 2);
  Rng grng(GetParam());
  for (size_t u = 0; u < 6; ++u) {
    for (size_t v = u + 1; v < 6; ++v) {
      if (grng.NextBernoulli(0.4)) {
        ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
                              static_cast<VertexId>(v))
                        .ok());
      }
    }
    g.SetOneHotFeature(static_cast<VertexId>(u), grng.NextBounded(2));
  }
  Evaluator eval(g);
  EvalTable a = *eval.Eval(original);
  EvalTable b = *eval.Eval(*reparsed);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (size_t i = 0; i < a.data.size(); ++i)
    EXPECT_NEAR(a.data[i], b.data[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace gelc
