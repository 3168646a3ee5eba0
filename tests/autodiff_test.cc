// Unit tests for autodiff: gradients checked against finite differences,
// plus optimizer behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "autodiff/optimizer.h"
#include "autodiff/tape.h"
#include "base/rng.h"

namespace gelc {
namespace {

// Checks d(loss)/d(param) against central finite differences for a scalar
// loss builder. The builder must rebuild the whole forward pass from the
// parameter's current value.
void CheckGradient(Parameter* p,
                   const std::function<double()>& loss_value,
                   const std::function<void()>& backward,
                   double tol = 1e-5) {
  p->ZeroGrad();
  backward();
  Matrix analytic = p->grad;
  const double h = 1e-6;
  for (size_t r = 0; r < p->value.rows(); ++r) {
    for (size_t c = 0; c < p->value.cols(); ++c) {
      double orig = p->value.At(r, c);
      p->value.At(r, c) = orig + h;
      double up = loss_value();
      p->value.At(r, c) = orig - h;
      double down = loss_value();
      p->value.At(r, c) = orig;
      double fd = (up - down) / (2 * h);
      EXPECT_NEAR(analytic.At(r, c), fd, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(TapeTest, ForwardValuesMatchMatrixOps) {
  Tape tape;
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  ValueId ia = tape.Input(a);
  ValueId ib = tape.Input(b);
  EXPECT_EQ(tape.value(tape.Add(ia, ib)), a + b);
  EXPECT_EQ(tape.value(tape.MatMul(ia, ib)), a.MatMul(b));
  EXPECT_EQ(tape.value(tape.Hadamard(ia, ib)), a.Hadamard(b));
  EXPECT_EQ(tape.value(tape.Scale(ia, 3.0)), a * 3.0);
  EXPECT_EQ(tape.value(tape.ConcatCols(ia, ib)), a.ConcatCols(b));
}

TEST(TapeTest, MseGradientMatMul) {
  Rng rng(11);
  Parameter w(Matrix::RandomGaussian(3, 2, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(4, 3, 1.0, &rng);
  Matrix target = Matrix::RandomGaussian(4, 2, 1.0, &rng);

  auto loss_value = [&]() {
    Tape t;
    ValueId pred = t.MatMul(t.Input(x), t.Param(&w));
    return t.value(t.Mse(pred, target)).At(0, 0);
  };
  auto backward = [&]() {
    Tape t;
    ValueId pred = t.MatMul(t.Input(x), t.Param(&w));
    t.Backward(t.Mse(pred, target));
  };
  CheckGradient(&w, loss_value, backward);
}

TEST(TapeTest, GradThroughActivationAndBias) {
  Rng rng(13);
  Parameter w(Matrix::RandomGaussian(3, 3, 0.5, &rng));
  Parameter b(Matrix::RandomGaussian(1, 3, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(5, 3, 1.0, &rng);
  Matrix target = Matrix::RandomGaussian(5, 3, 1.0, &rng);

  auto build = [&](Tape* t) {
    ValueId h = t->AddRowBroadcast(t->MatMul(t->Input(x), t->Param(&w)),
                                   t->Param(&b));
    return t->Mse(t->Act(Activation::kTanh, h), target);
  };
  auto loss_value = [&]() {
    Tape t;
    return t.value(build(&t)).At(0, 0);
  };
  for (Parameter* p : {&w, &b}) {
    p->ZeroGrad();
  }
  auto backward = [&]() {
    Tape t;
    t.Backward(build(&t));
  };
  CheckGradient(&w, loss_value, backward);
  CheckGradient(&b, loss_value, backward);
}

TEST(TapeTest, GradThroughHadamardScaleConcat) {
  Rng rng(17);
  Parameter w(Matrix::RandomGaussian(2, 2, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(3, 2, 1.0, &rng);
  Matrix target = Matrix::RandomGaussian(3, 4, 1.0, &rng);

  auto build = [&](Tape* t) {
    ValueId xa = t->Input(x);
    ValueId h = t->MatMul(xa, t->Param(&w));
    ValueId had = t->Hadamard(h, xa);
    ValueId sc = t->Scale(h, -1.5);
    return t->Mse(t->ConcatCols(had, sc), target);
  };
  CheckGradient(
      &w,
      [&]() {
        Tape t;
        return t.value(build(&t)).At(0, 0);
      },
      [&]() {
        Tape t;
        t.Backward(build(&t));
      });
}

TEST(TapeTest, GradThroughColSumsAndGather) {
  Rng rng(19);
  Parameter w(Matrix::RandomGaussian(2, 3, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(6, 2, 1.0, &rng);
  Matrix target = Matrix::RandomGaussian(2, 3, 1.0, &rng);
  std::vector<size_t> rows = {1, 4};

  auto build = [&](Tape* t) {
    ValueId h = t->MatMul(t->Input(x), t->Param(&w));
    ValueId g = t->GatherRows(h, rows);
    return t->Mse(g, target);
  };
  CheckGradient(
      &w,
      [&]() {
        Tape t;
        return t.value(build(&t)).At(0, 0);
      },
      [&]() {
        Tape t;
        t.Backward(build(&t));
      });
}

TEST(TapeTest, SoftmaxCrossEntropyGradient) {
  Rng rng(23);
  Parameter w(Matrix::RandomGaussian(3, 4, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(5, 3, 1.0, &rng);
  std::vector<size_t> labels = {0, 3, 1, 2, 0};

  auto build = [&](Tape* t) {
    ValueId logits = t->MatMul(t->Input(x), t->Param(&w));
    return t->SoftmaxCrossEntropy(logits, labels);
  };
  CheckGradient(
      &w,
      [&]() {
        Tape t;
        return t.value(build(&t)).At(0, 0);
      },
      [&]() {
        Tape t;
        t.Backward(build(&t));
      });
}

TEST(TapeTest, SoftmaxCrossEntropyValueMatchesManual) {
  Tape tape;
  Matrix logits = {{0.0, 0.0}};
  ValueId l = tape.Input(logits);
  ValueId loss = tape.SoftmaxCrossEntropy(l, {0});
  EXPECT_NEAR(tape.value(loss).At(0, 0), std::log(2.0), 1e-12);
}

TEST(TapeTest, GradientAccumulatesForSharedParam) {
  Parameter w(Matrix({{1.0}}));
  Tape tape;
  ValueId p1 = tape.Param(&w);
  ValueId p2 = tape.Param(&w);
  // loss = (w + w)^2-ish via Mse against 0: pred = w + w = 2, loss = 4.
  ValueId sum = tape.Add(p1, p2);
  ValueId loss = tape.Mse(sum, Matrix({{0.0}}));
  w.ZeroGrad();
  tape.Backward(loss);
  // d/dw (2w)^2 = 8w = 8.
  EXPECT_NEAR(w.grad.At(0, 0), 8.0, 1e-12);
}

TEST(TapeTest, SegmentOpsForwardMatchPerBlockColumnOps) {
  Rng rng(37);
  Matrix x = Matrix::RandomGaussian(6, 3, 1.0, &rng);
  // Four segments, the second empty.
  std::vector<size_t> offsets = {0, 2, 2, 5, 6};
  Tape t;
  ValueId ix = t.Input(x);
  Matrix sum = t.value(t.SegmentSum(ix, offsets));
  ASSERT_EQ(sum.rows(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    size_t rows = offsets[s + 1] - offsets[s];
    if (rows == 0) {
      // Empty segments pool to zero rows.
      EXPECT_EQ(sum.Row(s), Matrix(1, 3));
      continue;
    }
    Matrix block(rows, 3);
    for (size_t r = 0; r < rows; ++r)
      for (size_t c = 0; c < 3; ++c)
        block.At(r, c) = x.At(offsets[s] + r, c);
    // Bit-for-bit the whole-matrix column sums of the block alone.
    EXPECT_EQ(sum.Row(s), block.ColSums());
  }
}

TEST(TapeTest, GradThroughSegmentSum) {
  Rng rng(41);
  Parameter w(Matrix::RandomGaussian(3, 2, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(6, 3, 1.0, &rng);
  std::vector<size_t> offsets = {0, 2, 2, 5, 6};  // empty middle segment
  Matrix target = Matrix::RandomGaussian(4, 2, 1.0, &rng);
  auto build = [&](Tape* t) {
    ValueId h = t->MatMul(t->Input(x), t->Param(&w));
    return t->Mse(t->SegmentSum(h, offsets), target);
  };
  CheckGradient(
      &w,
      [&]() {
        Tape t;
        return t.value(build(&t)).At(0, 0);
      },
      [&]() {
        Tape t;
        t.Backward(build(&t));
      });
}

TEST(TapeTest, SegmentedMatMulAndBiasMatchPlainOps) {
  Rng rng(43);
  Parameter w(Matrix::RandomGaussian(3, 2, 0.5, &rng));
  Parameter b(Matrix::RandomGaussian(1, 2, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(6, 3, 1.0, &rng);
  std::vector<size_t> offsets = {0, 2, 2, 5, 6};
  Matrix target = Matrix::RandomGaussian(6, 2, 1.0, &rng);

  auto build = [&](Tape* t, bool segmented) {
    ValueId ix = t->Input(x);
    ValueId h = segmented ? t->MatMulSegments(ix, t->Param(&w), offsets)
                          : t->MatMul(ix, t->Param(&w));
    ValueId out = segmented
                      ? t->AddRowBroadcastSegments(h, t->Param(&b), offsets)
                      : t->AddRowBroadcast(h, t->Param(&b));
    return t->Mse(out, target);
  };
  // Forward values are bitwise those of the plain ops.
  {
    Tape plain, seg;
    EXPECT_EQ(plain.value(build(&plain, false)),
              seg.value(build(&seg, true)));
  }
  for (Parameter* p : {&w, &b}) {
    CheckGradient(
        p,
        [&]() {
          Tape t;
          return t.value(build(&t, true)).At(0, 0);
        },
        [&]() {
          Tape t;
          t.Backward(build(&t, true));
        });
  }
  // The segmented backward computes the same real-valued gradients, just
  // accumulated per segment; numerically they track the plain ops.
  auto grads_of = [&](bool segmented) {
    w.ZeroGrad();
    b.ZeroGrad();
    Tape t;
    t.Backward(build(&t, segmented));
    return std::pair<Matrix, Matrix>(w.grad, b.grad);
  };
  auto [gw_seg, gb_seg] = grads_of(true);
  auto [gw_plain, gb_plain] = grads_of(false);
  EXPECT_TRUE(gw_seg.AllClose(gw_plain, 1e-12));
  EXPECT_TRUE(gb_seg.AllClose(gb_plain, 1e-12));
}

// A single graph trains as a batch of one, whose offsets are {0, n}. Over
// one segment the segment ops must carry the bits of the plain ops they
// replace: MatMulSegments of MatMul, AddRowBroadcastSegments of
// AddRowBroadcast, SegmentSum of Matrix::ColSums. Sum pooling on the plain
// side is the product with the all-ones row, whose cells add 1.0 * h[k][j]
// (exact) in ascending k from zero, the ColSums chain. The inputs are
// Parameters, so every gradient that reaches a leaf is compared. 37 x 5
// runs MatMul serially; 1200 x 16 into 16 outputs is above the serial
// threshold of either SIMD tier, so with a pool the plain products shard.
TEST(TapeTest, OneSegmentOpsMatchPlainOpsBitForBit) {
  for (auto [n, din] : {std::pair<size_t, size_t>{37, 5}, {1200, 16}}) {
    const size_t dout = 16;
    Rng rng(59);
    Parameter x(Matrix::RandomGaussian(n, din, 1.0, &rng));
    Parameter w(Matrix::RandomGaussian(din, dout, 0.5, &rng));
    Parameter b(Matrix::RandomGaussian(1, dout, 0.5, &rng));
    Matrix rows_target = Matrix::RandomGaussian(n, dout, 1.0, &rng);
    Matrix pool_target = Matrix::RandomGaussian(1, dout, 1.0, &rng);
    const std::vector<size_t> offsets = {0, n};

    struct Run {
      Matrix product, biased, pooled, gx, gw, gb;
    };
    auto run = [&](bool segmented) {
      for (Parameter* p : {&x, &w, &b}) p->ZeroGrad();
      Tape t;
      ValueId ix = t.Param(&x);
      ValueId product = segmented
                            ? t.MatMulSegments(ix, t.Param(&w), offsets)
                            : t.MatMul(ix, t.Param(&w));
      ValueId biased =
          segmented ? t.AddRowBroadcastSegments(product, t.Param(&b), offsets)
                    : t.AddRowBroadcast(product, t.Param(&b));
      ValueId pooled =
          segmented ? t.SegmentSum(biased, offsets)
                    : t.MatMul(t.Input(Matrix(1, n, 1.0)), biased);
      t.Backward(t.Add(t.Mse(biased, rows_target), t.Mse(pooled, pool_target)));
      return Run{t.value(product), t.value(biased), t.value(pooled),
                 x.grad, w.grad, b.grad};
    };
    Run plain = run(false);
    Run seg = run(true);
    EXPECT_EQ(seg.product, plain.product) << n;
    EXPECT_EQ(seg.biased, plain.biased) << n;
    EXPECT_EQ(seg.pooled, seg.biased.ColSums()) << n;
    EXPECT_EQ(seg.pooled, plain.pooled) << n;
    EXPECT_EQ(seg.gx, plain.gx) << n;
    EXPECT_EQ(seg.gw, plain.gw) << n;
    EXPECT_EQ(seg.gb, plain.gb) << n;
  }
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Parameter w(Matrix({{5.0}}));
  Sgd opt(0.1);
  opt.Register(&w);
  for (int i = 0; i < 200; ++i) {
    Tape t;
    ValueId loss = t.Mse(t.Param(&w), Matrix({{2.0}}));
    opt.ZeroGrad();
    t.Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(w.value.At(0, 0), 2.0, 1e-6);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  Parameter plain(Matrix({{5.0}}));
  Parameter heavy(Matrix({{5.0}}));
  Sgd opt_plain(0.01);
  Sgd opt_heavy(0.01, 0.9);
  opt_plain.Register(&plain);
  opt_heavy.Register(&heavy);
  for (int i = 0; i < 50; ++i) {
    for (auto [opt, p] : {std::pair<Sgd*, Parameter*>{&opt_plain, &plain},
                          {&opt_heavy, &heavy}}) {
      Tape t;
      ValueId loss = t.Mse(t.Param(p), Matrix({{0.0}}));
      opt->ZeroGrad();
      t.Backward(loss);
      opt->Step();
    }
  }
  EXPECT_LT(std::fabs(heavy.value.At(0, 0)),
            std::fabs(plain.value.At(0, 0)));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Parameter w(Matrix({{-3.0, 7.0}}));
  Adam opt(0.05);
  opt.Register(&w);
  Matrix target = {{1.0, -2.0}};
  for (int i = 0; i < 2000; ++i) {
    Tape t;
    ValueId loss = t.Mse(t.Param(&w), target);
    opt.ZeroGrad();
    t.Backward(loss);
    opt.Step();
  }
  EXPECT_TRUE(w.value.AllClose(target, 1e-3));
}

TEST(TapeTest, LinearRegressionEndToEnd) {
  // Recover y = x * [2, -1]^T + 0.5 from noiseless data.
  Rng rng(31);
  Matrix x = Matrix::RandomGaussian(64, 2, 1.0, &rng);
  Matrix true_w = {{2.0}, {-1.0}};
  Matrix y = x.MatMul(true_w).AddRowBroadcast(Matrix({{0.5}}));

  Parameter w(Matrix::RandomGaussian(2, 1, 0.1, &rng));
  Parameter b(Matrix(1, 1));
  Adam opt(0.05);
  opt.Register(&w);
  opt.Register(&b);
  for (int i = 0; i < 800; ++i) {
    Tape t;
    ValueId pred = t.AddRowBroadcast(t.MatMul(t.Input(x), t.Param(&w)),
                                     t.Param(&b));
    ValueId loss = t.Mse(pred, y);
    opt.ZeroGrad();
    t.Backward(loss);
    opt.Step();
  }
  EXPECT_TRUE(w.value.AllClose(true_w, 1e-3));
  EXPECT_NEAR(b.value.At(0, 0), 0.5, 1e-3);
}

}  // namespace
}  // namespace gelc
