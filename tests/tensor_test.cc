// Unit tests for tensor: Matrix operations and activations.
#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace gelc {
namespace {

TEST(MatrixTest, InitializerListShape) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.At(1, 2), 6.0);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m.MatMul(Matrix::Identity(2)), m);
  EXPECT_EQ(Matrix::Identity(2).MatMul(m), m);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c, Matrix({{19, 22}, {43, 50}}));
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a = {{1, 0, 2}};       // 1x3
  Matrix b = {{1}, {5}, {-1}};  // 3x1
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_EQ(c.At(0, 0), -1.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(1);
  Matrix m = Matrix::RandomGaussian(3, 5, 1.0, &rng);
  EXPECT_EQ(m.Transposed().Transposed(), m);
}

TEST(MatrixTest, TransposeCommutesWithMatMul) {
  Rng rng(2);
  Matrix a = Matrix::RandomGaussian(3, 4, 1.0, &rng);
  Matrix b = Matrix::RandomGaussian(4, 2, 1.0, &rng);
  // (AB)^T == B^T A^T
  EXPECT_TRUE(a.MatMul(b).Transposed().AllClose(
      b.Transposed().MatMul(a.Transposed()), 1e-12));
}

TEST(MatrixTest, ArithmeticOps) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{10, 20}, {30, 40}};
  EXPECT_EQ(a + b, Matrix({{11, 22}, {33, 44}}));
  EXPECT_EQ(b - a, Matrix({{9, 18}, {27, 36}}));
  EXPECT_EQ(a * 2.0, Matrix({{2, 4}, {6, 8}}));
  EXPECT_EQ(a.Hadamard(b), Matrix({{10, 40}, {90, 160}}));
}

TEST(MatrixTest, RowBroadcast) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix bias = {{10, 100}};
  EXPECT_EQ(a.AddRowBroadcast(bias), Matrix({{11, 102}, {13, 104}}));
}

TEST(MatrixTest, Reductions) {
  Matrix a = {{1, 2}, {3, 4}, {-1, 10}};
  EXPECT_EQ(a.Sum(), 19.0);
  EXPECT_EQ(a.ColSums(), Matrix({{3, 16}}));
  EXPECT_TRUE(a.ColMeans().AllClose(Matrix({{1.0, 16.0 / 3.0}})));
}

TEST(MatrixTest, MovedFromIsEmptyAndReusable) {
  Rng rng(3);
  Matrix a = Matrix::RandomUniform(3, 4, -1.0, 1.0, &rng);
  Matrix b = Matrix::RandomUniform(4, 2, -1.0, 1.0, &rng);
  Matrix out = a.MatMul(b);
  const Matrix want = out;
  Matrix taken = std::move(out);
  EXPECT_EQ(taken, want);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 0u);
  EXPECT_TRUE(out.data().empty());
  // The *Into kernels reuse an output by its shape: a moved-from matrix
  // must read as empty, not as 3x2 over no storage.
  a.MatMulInto(b, &out);
  EXPECT_EQ(out, want);

  CsrMatrix csr = CsrMatrix::FromDense({{0, 1, 0}, {2, 0, 0.5}, {0, 0, 0}});
  Matrix f = Matrix::RandomUniform(3, 2, -1.0, 1.0, &rng);
  Matrix fresh;
  SpMMInto(csr, f, &fresh);
  Matrix reused = std::move(fresh);
  SpMMInto(csr, f, &fresh);
  EXPECT_EQ(fresh, reused);

  Matrix assigned(5, 5, 1.0);
  assigned = std::move(taken);
  EXPECT_EQ(assigned, want);
  EXPECT_EQ(taken.rows(), 0u);
  EXPECT_TRUE(taken.data().empty());
  Matrix& alias = assigned;
  assigned = std::move(alias);  // self-move keeps the value
  EXPECT_EQ(assigned, want);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix a = {{3, 4}};
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, IsZero) {
  EXPECT_TRUE(Matrix(3, 2).IsZero());
  EXPECT_TRUE(Matrix().IsZero());
  EXPECT_TRUE(Matrix({{0.0, -0.0}}).IsZero());
  EXPECT_FALSE(Matrix({{0.0, 1e-300}}).IsZero());
  Matrix m(4, 4);
  m.At(3, 3) = -2.5;
  EXPECT_FALSE(m.IsZero());
  // Subnormals count as nonzero even though their squares underflow.
  EXPECT_FALSE(Matrix({{5e-324}}).IsZero());
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a = {{1, 2}};
  Matrix b = {{1.5, -1}};
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 3.0);
}

TEST(MatrixTest, ConcatCols) {
  Matrix a = {{1}, {2}};
  Matrix b = {{3, 4}, {5, 6}};
  EXPECT_EQ(a.ConcatCols(b), Matrix({{1, 3, 4}, {2, 5, 6}}));
}

TEST(MatrixTest, RowAccessAndSet) {
  Matrix a = {{1, 2}, {3, 4}};
  EXPECT_EQ(a.Row(1), Matrix({{3, 4}}));
  a.SetRow(0, Matrix({{9, 8}}));
  EXPECT_EQ(a, Matrix({{9, 8}, {3, 4}}));
}

TEST(MatrixTest, MapApplies) {
  Matrix a = {{-1, 4}};
  Matrix sq = a.Map([](double x) { return x * x; });
  EXPECT_EQ(sq, Matrix({{1, 16}}));
}

TEST(MatrixTest, RandomUniformInRange) {
  Rng rng(3);
  Matrix m = Matrix::RandomUniform(10, 10, -2.0, 3.0, &rng);
  for (double x : m.data()) {
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(MatrixTest, ToStringRendering) {
  Matrix a = {{1, 2}, {3, 4}};
  EXPECT_EQ(a.ToString(), "[[1, 2], [3, 4]]");
}

struct ActivationCase {
  Activation act;
  double in;
  double expected;
};

class ActivationParamTest : public ::testing::TestWithParam<ActivationCase> {};

TEST_P(ActivationParamTest, Value) {
  const ActivationCase& c = GetParam();
  EXPECT_NEAR(ApplyActivation(c.act, c.in), c.expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ActivationParamTest,
    ::testing::Values(
        ActivationCase{Activation::kReLU, -1.0, 0.0},
        ActivationCase{Activation::kReLU, 2.5, 2.5},
        ActivationCase{Activation::kIdentity, -3.0, -3.0},
        ActivationCase{Activation::kSign, -0.5, -1.0},
        ActivationCase{Activation::kSign, 0.0, 0.0},
        ActivationCase{Activation::kSign, 7.0, 1.0},
        ActivationCase{Activation::kSigmoid, 0.0, 0.5},
        ActivationCase{Activation::kTanh, 0.0, 0.0},
        ActivationCase{Activation::kClippedReLU, -1.0, 0.0},
        ActivationCase{Activation::kClippedReLU, 0.5, 0.5},
        ActivationCase{Activation::kClippedReLU, 3.0, 1.0}));

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, MatchesFiniteDifference) {
  Activation act = GetParam();
  const double h = 1e-6;
  // Avoid the kink points of the piecewise activations.
  for (double x : {-1.7, -0.42, 0.33, 0.77, 1.9}) {
    double fd = (ApplyActivation(act, x + h) - ApplyActivation(act, x - h)) /
                (2 * h);
    EXPECT_NEAR(ActivationGrad(act, x), fd, 1e-5)
        << ActivationName(act) << " at " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationGradTest,
    ::testing::Values(Activation::kIdentity, Activation::kReLU,
                      Activation::kSigmoid, Activation::kTanh,
                      Activation::kClippedReLU));

TEST(ActivationTest, ParseRoundTrips) {
  for (Activation a :
       {Activation::kIdentity, Activation::kReLU, Activation::kSigmoid,
        Activation::kTanh, Activation::kSign, Activation::kClippedReLU}) {
    Result<Activation> parsed = ParseActivation(ActivationName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(ParseActivation("swish").ok());
}

TEST(SoftmaxTest, RowsSumToOne) {
  Matrix logits = {{1, 2, 3}, {-100, 0, 100}};
  Matrix p = RowSoftmax(logits);
  for (size_t i = 0; i < p.rows(); ++i) {
    double s = 0;
    for (size_t j = 0; j < p.cols(); ++j) {
      s += p.At(i, j);
      EXPECT_GE(p.At(i, j), 0.0);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, StableAtExtremeLogits) {
  Matrix logits = {{1000, 1001, 999}};
  Matrix p = RowSoftmax(logits);
  EXPECT_FALSE(std::isnan(p.At(0, 0)));
  EXPECT_GT(p.At(0, 1), p.At(0, 0));
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix logits = {{0.3, -1.2, 2.0}};
  Matrix lp = RowLogSoftmax(logits);
  Matrix p = RowSoftmax(logits);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(lp.At(0, j), std::log(p.At(0, j)), 1e-12);
}

TEST(ArgmaxTest, PicksFirstMaximum) {
  Matrix m = {{1, 3, 3}, {5, 2, 1}};
  std::vector<size_t> a = RowArgmax(m);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 0u);
}

}  // namespace
}  // namespace gelc
