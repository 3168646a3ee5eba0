// Tests for GEL(Ω,Θ) expression construction and validation.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/expr.h"

namespace gelc {
namespace {

TEST(VarSetTest, Basics) {
  VarSet s = VarBit(0) | VarBit(3);
  EXPECT_TRUE(VarSetContains(s, 0));
  EXPECT_FALSE(VarSetContains(s, 1));
  EXPECT_EQ(VarSetSize(s), 2u);
  EXPECT_EQ(VarSetList(s), (std::vector<Var>{0, 3}));
  EXPECT_EQ(VarSetToString(s), "x0,x3");
}

TEST(ExprTest, LabelAtom) {
  Result<ExprPtr> e = Expr::Label(2, 1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), Expr::Kind::kLabel);
  EXPECT_EQ((*e)->dim(), 1u);
  EXPECT_EQ((*e)->free_vars(), VarBit(1));
  EXPECT_EQ((*e)->ToString(), "lab2(x1)");
  EXPECT_FALSE(Expr::Label(0, kMaxVariables).ok());
}

TEST(ExprTest, EdgeAtom) {
  Result<ExprPtr> e = Expr::Edge(0, 1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->free_vars(), VarBit(0) | VarBit(1));
  EXPECT_FALSE(Expr::Edge(1, 1).ok());
  EXPECT_FALSE(Expr::Edge(0, 99).ok());
}

TEST(ExprTest, CompareAtom) {
  Result<ExprPtr> e = Expr::Compare(0, 2, CmpOp::kNeq);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "1[x0!=x2]");
  EXPECT_FALSE(Expr::Compare(3, 3, CmpOp::kEq).ok());
}

TEST(ExprTest, ConstantDimension) {
  Result<ExprPtr> e = Expr::Constant({1.0, 2.0, 3.0});
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->dim(), 3u);
  EXPECT_EQ((*e)->free_vars(), 0u);
  EXPECT_FALSE(Expr::Constant({}).ok());
}

TEST(ExprTest, ApplyChecksArityAndDims) {
  ExprPtr a = *Expr::Label(0, 0);
  ExprPtr b = *Expr::Label(1, 1);
  OmegaPtr add = omega::Add(1);
  Result<ExprPtr> good = Expr::Apply(add, {a, b});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ((*good)->dim(), 1u);
  EXPECT_EQ((*good)->free_vars(), VarBit(0) | VarBit(1));

  EXPECT_FALSE(Expr::Apply(add, {a}).ok());          // arity
  ExprPtr c2 = *Expr::Constant({1.0, 2.0});
  EXPECT_FALSE(Expr::Apply(add, {a, c2}).ok());      // dim mismatch
  EXPECT_FALSE(Expr::Apply(nullptr, {a, b}).ok());   // null fn
  EXPECT_FALSE(Expr::Apply(add, {a, nullptr}).ok()); // null child
}

TEST(ExprTest, AggregateBindingAndFreeVars) {
  ExprPtr val = *Expr::Label(0, 1);
  ExprPtr guard = *Expr::Edge(0, 1);
  Result<ExprPtr> agg = Expr::Aggregate(theta::Sum(1), VarBit(1), val, guard);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ((*agg)->free_vars(), VarBit(0));
  EXPECT_EQ((*agg)->all_vars(), VarBit(0) | VarBit(1));
  EXPECT_EQ((*agg)->bound_vars(), VarBit(1));
  EXPECT_EQ((*agg)->AggregationDepth(), 1u);
}

TEST(ExprTest, AggregateValidation) {
  ExprPtr val = *Expr::Label(0, 1);
  EXPECT_FALSE(Expr::Aggregate(nullptr, VarBit(1), val, nullptr).ok());
  EXPECT_FALSE(Expr::Aggregate(theta::Sum(1), 0, val, nullptr).ok());
  EXPECT_FALSE(Expr::Aggregate(theta::Sum(1), VarBit(1), nullptr,
                               nullptr).ok());
  // Dim mismatch: sum over R^2 fed a 1-dim value.
  EXPECT_FALSE(Expr::Aggregate(theta::Sum(2), VarBit(1), val, nullptr).ok());
}

TEST(ExprTest, GlobalAggregateClosesExpression) {
  ExprPtr val = *Expr::Label(0, 0);
  Result<ExprPtr> agg = Expr::Aggregate(theta::Sum(1), VarBit(0), val,
                                        nullptr);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ((*agg)->free_vars(), 0u);
  EXPECT_EQ((*agg)->guard(), nullptr);
}

TEST(ExprTest, NestedAggregationDepth) {
  ExprPtr inner = *Expr::Aggregate(theta::Sum(1), VarBit(1),
                                   *Expr::Label(0, 1), *Expr::Edge(0, 1));
  ExprPtr outer = *Expr::Aggregate(theta::Sum(1), VarBit(0), inner, nullptr);
  EXPECT_EQ(outer->AggregationDepth(), 2u);
  EXPECT_EQ(outer->free_vars(), 0u);
}

TEST(ExprTest, TreeSizeCountsGuard) {
  ExprPtr e = *Expr::Aggregate(theta::Sum(1), VarBit(1),
                               *Expr::Constant({1.0}), *Expr::Edge(0, 1));
  EXPECT_EQ(e->TreeSize(), 3u);  // agg + const + guard
}

TEST(ExprTest, ToStringAggregate) {
  ExprPtr e = *Expr::Aggregate(theta::Mean(1), VarBit(1),
                               *Expr::Label(0, 1), *Expr::Edge(0, 1));
  EXPECT_EQ(e->ToString(), "agg[mean]_{x1}(lab0(x1) | E(x0,x1))");
}

TEST(OmegaTest, ConcatDims) {
  OmegaPtr c = omega::Concat({2, 3});
  EXPECT_EQ(c->out_dim, 5u);
  EXPECT_EQ(c->total_in_dim(), 5u);
  double a[] = {1, 2};
  double b[] = {3, 4, 5};
  double out[5];
  c->fn({a, b}, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[4], 5);
}

TEST(OmegaTest, LinearValidatesShapes) {
  EXPECT_FALSE(omega::Linear({2}, Matrix(3, 2), Matrix(1, 2)).ok());
  EXPECT_FALSE(omega::Linear({2}, Matrix(2, 2), Matrix(1, 3)).ok());
  Result<OmegaPtr> lin =
      omega::Linear({1, 1}, Matrix({{2.0}, {3.0}}), Matrix({{1.0}}));
  ASSERT_TRUE(lin.ok());
  double a = 10, b = 100;
  double out;
  (*lin)->fn({&a, &b}, &out);
  EXPECT_EQ(out, 2 * 10 + 3 * 100 + 1);
}

TEST(OmegaTest, ProjectValidatesRange) {
  EXPECT_FALSE(omega::Project(3, 2, 2).ok());
  EXPECT_FALSE(omega::Project(3, 0, 0).ok());
  // begin + len wraps to 1 here; the bound check must not.
  EXPECT_FALSE(omega::Project(2, SIZE_MAX, 2).ok());
  Result<OmegaPtr> p = omega::Project(3, 1, 2);
  ASSERT_TRUE(p.ok());
  double in[] = {7, 8, 9};
  double out[2];
  (*p)->fn({in}, out);
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(out[1], 9);
}

TEST(ThetaTest, AggregateSemantics) {
  auto run = [](const ThetaPtr& t, const std::vector<std::vector<double>>& bag) {
    std::vector<double> acc(t->out_dim);
    t->init(acc.data());
    for (const auto& x : bag) t->accumulate(acc.data(), x.data());
    t->finalize(acc.data(), bag.size());
    return acc;
  };
  std::vector<std::vector<double>> bag = {{1, 5}, {3, -2}, {2, 0}};
  EXPECT_EQ(run(theta::Sum(2), bag), (std::vector<double>{6, 3}));
  EXPECT_EQ(run(theta::Mean(2), bag), (std::vector<double>{2, 1}));
  EXPECT_EQ(run(theta::Max(2), bag), (std::vector<double>{3, 5}));
  EXPECT_EQ(run(theta::Count(2), bag), (std::vector<double>{3}));
  // Empty bags.
  EXPECT_EQ(run(theta::Sum(2), {}), (std::vector<double>{0, 0}));
  EXPECT_EQ(run(theta::Mean(2), {}), (std::vector<double>{0, 0}));
  EXPECT_EQ(run(theta::Max(2), {}), (std::vector<double>{0, 0}));
  EXPECT_EQ(run(theta::Count(2), {}), (std::vector<double>{0}));
}

}  // namespace
}  // namespace gelc
