// Tests for the SIMD kernel tier (tensor/simd.h): tier resolution, the
// bit-exactness contract between the scalar and AVX2 tiers at both ends
// of the thread range, and the dispatch observability counters.
#include "tensor/simd.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/aligned.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "obs/metrics.h"
#include "tensor/fused.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/segment.h"
#include "tensor/sparse.h"

namespace gelc {
namespace {

using simd::Tier;

// Restores the GELC_SIMD / cpuid default resolution on scope exit, so a
// test that pins tiers never leaks its override into later tests.
struct ScopedTier {
  explicit ScopedTier(Tier t) { simd::SetTier(t); }
  ~ScopedTier() { simd::ResetTier(); }
};

struct ScopedThreads {
  explicit ScopedThreads(size_t n) { SetParallelThreadCount(n); }
  ~ScopedThreads() { SetParallelThreadCount(0); }
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::RandomUniform(rows, cols, -1.0, 1.0, &rng);
}

// A CSR matrix with ~`density` nonzeros per slot; `weighted` keeps the
// sampled values, otherwise the structure carries implicit 1.0 weights.
CsrMatrix RandomCsr(size_t rows, size_t cols, double density, bool weighted,
                    uint64_t seed) {
  Rng rng(seed);
  Matrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextUniform(0.0, 1.0) < density) {
        dense.At(i, j) = rng.NextUniform(-2.0, 2.0);
      }
    }
  }
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  if (!weighted) csr.values.clear();
  return csr;
}

// ---------------------------------------------------------------------------
// Tier resolution.
// ---------------------------------------------------------------------------

TEST(SimdTierTest, EnvValueParsing) {
  EXPECT_EQ(simd::TierFromEnvValue("0", true), Tier::kScalar);
  EXPECT_EQ(simd::TierFromEnvValue("scalar", true), Tier::kScalar);
  EXPECT_EQ(simd::TierFromEnvValue(nullptr, true), Tier::kAvx2);
  EXPECT_EQ(simd::TierFromEnvValue("1", true), Tier::kAvx2);
  EXPECT_EQ(simd::TierFromEnvValue("avx2", true), Tier::kAvx2);
  // There is no FMA tier: "fast" is an unrecognized value like any other
  // and resolves to the default.
  EXPECT_EQ(simd::TierFromEnvValue("fast", true), Tier::kAvx2);
  // Without hardware support everything except the explicit scalar
  // override degrades to scalar.
  EXPECT_EQ(simd::TierFromEnvValue(nullptr, false), Tier::kScalar);
  EXPECT_EQ(simd::TierFromEnvValue("fast", false), Tier::kScalar);
  EXPECT_EQ(simd::TierFromEnvValue("0", false), Tier::kScalar);
}

// The ctest entry simd_test_forced_scalar re-runs this binary under
// GELC_SIMD=0; this test pins that the process-wide resolution honored
// it.
TEST(SimdTierTest, ActiveTierMatchesEnvResolution) {
  simd::ResetTier();
  EXPECT_EQ(simd::ActiveTier(),
            simd::TierFromEnvValue(std::getenv("GELC_SIMD"),
                                   simd::CpuHasAvx2Fma()));
}

TEST(SimdTierTest, SetTierInstallsOrDegrades) {
  ScopedTier guard(Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), Tier::kScalar);
  const Tier got = simd::SetTier(Tier::kAvx2);
  EXPECT_EQ(got, simd::CpuHasAvx2Fma() ? Tier::kAvx2 : Tier::kScalar);
  EXPECT_EQ(simd::TierName(Tier::kScalar), std::string("scalar"));
  EXPECT_EQ(simd::TierName(Tier::kAvx2), std::string("avx2"));
}

// ---------------------------------------------------------------------------
// Bit-exactness: the default AVX2 tier must reproduce the scalar tier's
// bits everywhere, at both ends of the thread range, including shapes
// that exercise every vector tail (dims not multiples of 4 or 8) and the
// sub-vector-width edge (d < 4).
// ---------------------------------------------------------------------------

struct Shape {
  size_t m, k, n;
};

class SimdBitExactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::CpuHasAvx2Fma()) {
      GTEST_SKIP() << "no AVX2/FMA hardware; vector tier unavailable";
    }
  }
};

TEST_F(SimdBitExactTest, MatMulScalarVsAvx2) {
  const Shape shapes[] = {{1, 1, 1},    {3, 2, 5},     {7, 5, 3},
                          {4, 8, 8},    {33, 17, 9},   {64, 64, 64},
                          {65, 31, 43}, {129, 65, 130}, {300, 150, 200}};
  for (const Shape& s : shapes) {
    Matrix a = RandomMatrix(s.m, s.k, 101 + s.m);
    Matrix b = RandomMatrix(s.k, s.n, 202 + s.n);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ScopedThreads scoped_threads(threads);
      Matrix scalar, avx2;
      {
        ScopedTier tier(Tier::kScalar);
        scalar = a.MatMul(b);
      }
      {
        ScopedTier tier(Tier::kAvx2);
        avx2 = a.MatMul(b);
      }
      EXPECT_TRUE(scalar == avx2)
          << s.m << "x" << s.k << "x" << s.n << " threads=" << threads
          << " maxdiff=" << scalar.MaxAbsDiff(avx2);
    }
  }
}

TEST_F(SimdBitExactTest, SpMMScalarVsAvx2WeightedAndNot) {
  // d sweeps the tails: sub-vector (1..3), one vector (4), odd (5, 7),
  // the 8-wide main loop (8, 16), and 8-plus-tails (11, 13).
  for (size_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u, 13u, 16u}) {
    for (bool weighted : {false, true}) {
      CsrMatrix a = RandomCsr(120, 90, 0.15, weighted, 7 + d);
      Matrix b = RandomMatrix(90, d, 31 + d);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ScopedThreads scoped_threads(threads);
        Matrix scalar, avx2;
        {
          ScopedTier tier(Tier::kScalar);
          scalar = SpMM(a, b);
        }
        {
          ScopedTier tier(Tier::kAvx2);
          avx2 = SpMM(a, b);
        }
        EXPECT_TRUE(scalar == avx2)
            << "d=" << d << " weighted=" << weighted
            << " threads=" << threads;
      }
    }
  }
}

TEST_F(SimdBitExactTest, NeighborAggregateScalarVsAvx2) {
  // d = 17 spans two gather chunks with a masked tail.
  for (size_t d : {3u, 8u, 13u, 17u}) {
    CsrMatrix csr = RandomCsr(80, 80, 0.1, true, 17 + d);
    CsrMatrix unweighted = csr;
    unweighted.values.clear();
    Matrix values = RandomMatrix(80, d, 29 + d);
    for (FusedAgg agg :
         {FusedAgg::kSum, FusedAgg::kMean, FusedAgg::kMax, FusedAgg::kCount}) {
      // Max aggregation over weighted CSR ignores weights; use both
      // structures to cover the weighted and unweighted sum paths.
      for (const CsrMatrix* a : {&csr, &unweighted}) {
        // Neighbor, source and broadcast bag rows.
        for (int gather = 0; gather < 3; ++gather) {
          for (size_t threads : {size_t{1}, size_t{4}}) {
            ScopedThreads scoped_threads(threads);
            Matrix scalar, avx2;
            {
              ScopedTier tier(Tier::kScalar);
              NeighborAggregateInto(*a, values, agg, gather == 2,
                                    gather == 1, &scalar);
            }
            {
              ScopedTier tier(Tier::kAvx2);
              NeighborAggregateInto(*a, values, agg, gather == 2,
                                    gather == 1, &avx2);
            }
            EXPECT_TRUE(scalar == avx2)
                << "d=" << d << " agg=" << static_cast<int>(agg)
                << " weighted=" << a->weighted() << " gather=" << gather
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// Same bits, with NaN payloads aside: which of two NaN operands an add
// propagates depends on operand order, which the compiler may swap in
// the scalar tier; NaN-ness and every other bit (signed zeros, inf) must
// match exactly.
bool SameBitsOrBothNan(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.data().size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

// Overwrites a few cells with ±0.0, NaN and ±inf, so the vector ReLU and
// max blend must reproduce x > 0 ? x : 0 and std::max exactly.
void SprinkleSpecialValues(Matrix* m, uint64_t seed) {
  const double specials[] = {0.0, -0.0, std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  Rng rng(seed);
  for (double& x : m->mutable_data()) {
    if (rng.NextUniform(0.0, 1.0) < 0.08) {
      x = specials[rng.NextBounded(5)];
    }
  }
}

// One argument shape of the fused layer sweep.
enum class ArgKind {
  kSelf,             // direct row v
  kBroadcastSelf,    // direct row 0
  kNeighbor,         // θ over neighbor rows
  kSource,           // θ over row v, once per neighbor
  kBroadcastBag,     // θ over row 0, once per neighbor
};

TEST_F(SimdBitExactTest, FusedLayerAndGinCombineScalarVsAvx2) {
  const Activation acts[] = {Activation::kIdentity, Activation::kReLU,
                             Activation::kSigmoid,  Activation::kTanh,
                             Activation::kSign,     Activation::kClippedReLU};
  const FusedAgg aggs[] = {FusedAgg::kSum, FusedAgg::kMean, FusedAgg::kMax,
                           FusedAgg::kCount};
  const ArgKind kinds[] = {ArgKind::kSelf, ArgKind::kNeighbor,
                           ArgKind::kBroadcastSelf, ArgKind::kSource,
                           ArgKind::kBroadcastBag};
  size_t config = 0;
  // n covers empty, partial 4-row blocks, isolated vertices (the sparse
  // CSR leaves many rows empty) and, at 301, a sharded dispatch.
  for (size_t n : {0u, 1u, 3u, 5u, 60u, 301u}) {
    for (size_t d : {1u, 3u, 4u, 5u, 16u, 17u}) {
      for (size_t out_dim : {1u, 3u, 4u, 8u, 16u, 19u}) {
        if (n == 301 && out_dim < 16) continue;
        ++config;
        const uint64_t seed = 1000 * n + 37 * d + out_dim;
        CsrMatrix csr = RandomCsr(n, n, n == 0 ? 0.0 : 4.0 / n,
                                  config % 2 == 0, seed);
        Matrix values = RandomMatrix(n == 0 ? 1 : n, d, seed + 1);
        SprinkleSpecialValues(&values, seed + 2);
        // 1-3 arguments, cycling argument kinds and aggregations.
        const size_t num_args = 1 + config % 3;
        std::vector<Matrix> weights;
        weights.reserve(num_args);
        std::vector<FusedLayerArg> args(num_args);
        for (size_t i = 0; i < num_args; ++i) {
          const ArgKind kind = kinds[(config + 2 * i) % 5];
          FusedLayerArg& a = args[i];
          a.values = &values;
          a.broadcast = kind == ArgKind::kBroadcastSelf ||
                        kind == ArgKind::kBroadcastBag;
          size_t w_rows = d;
          if (kind != ArgKind::kSelf && kind != ArgKind::kBroadcastSelf) {
            a.csr = &csr;
            a.agg = aggs[(config + i) % 4];
            a.gather_source = kind == ArgKind::kSource;
            if (a.agg == FusedAgg::kCount) w_rows = 1;
          }
          weights.push_back(RandomMatrix(w_rows, out_dim, seed + 3 + i));
        }
        for (size_t i = 0; i < num_args; ++i) args[i].w = &weights[i];
        Matrix bias = RandomMatrix(1, out_dim, seed + 9);
        const Activation act = acts[config % 6];
        const Matrix* bias_ptr = config % 4 == 3 ? nullptr : &bias;
        for (size_t threads : {size_t{1}, size_t{4}}) {
          ScopedThreads scoped_threads(threads);
          Matrix scalar_layer, avx2_layer;
          {
            ScopedTier tier(Tier::kScalar);
            FusedLayerInto(n, args, bias_ptr, act, &scalar_layer);
          }
          {
            ScopedTier tier(Tier::kAvx2);
            // A stale buffer of the right shape: every cell is written.
            avx2_layer = Matrix(n, out_dim, std::nan(""));
            FusedLayerInto(n, args, bias_ptr, act, &avx2_layer);
          }
          EXPECT_TRUE(SameBitsOrBothNan(scalar_layer, avx2_layer))
              << "n=" << n << " d=" << d << " out_dim=" << out_dim
              << " args=" << num_args << " act=" << ActivationName(act)
              << " threads=" << threads;
          if (n == 0 || d != out_dim) continue;
          // The GIN combine over the same graph and values.
          Matrix scalar_gin, avx2_gin;
          {
            ScopedTier tier(Tier::kScalar);
            FusedGinCombineInto(csr, values, 1.25, &scalar_gin);
          }
          {
            ScopedTier tier(Tier::kAvx2);
            avx2_gin = Matrix(n, d, std::nan(""));
            FusedGinCombineInto(csr, values, 1.25, &avx2_gin);
          }
          EXPECT_TRUE(SameBitsOrBothNan(scalar_gin, avx2_gin))
              << "gin n=" << n << " d=" << d << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(SimdBitExactTest, SegmentOpsScalarVsAvx2) {
  for (size_t d : {3u, 8u, 11u}) {
    Matrix f = RandomMatrix(50, d, 61 + d);
    // Offsets with empty, singleton, and long segments.
    std::vector<size_t> offsets = {0, 0, 1, 5, 5, 20, 50};
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ScopedThreads scoped_threads(threads);
      Matrix ssum, vsum;
      {
        ScopedTier tier(Tier::kScalar);
        ssum = SegmentSum(f, offsets);
      }
      {
        ScopedTier tier(Tier::kAvx2);
        vsum = SegmentSum(f, offsets);
      }
      EXPECT_TRUE(ssum == vsum) << "d=" << d << " threads=" << threads;
    }
  }
}

// Max semantics corner: signed zeros and the keep-acc-on-tie convention
// must match std::max in the vector tier (naive _mm256_max_pd would not).
TEST_F(SimdBitExactTest, MaxRowSignedZeroAndTies) {
  AlignedVector acc_s = {-0.0, 0.0, 1.0, -1.0, -0.0, 0.0, 2.0, -2.0, 5.0};
  AlignedVector x = {0.0, -0.0, 1.0, 1.0, -0.0, 0.0, -2.0, 2.0, 5.0};
  AlignedVector acc_v = acc_s;
  {
    ScopedTier tier(Tier::kScalar);
    simd::MaxRow(acc_s.data(), x.data(), acc_s.size());
  }
  {
    ScopedTier tier(Tier::kAvx2);
    simd::MaxRow(acc_v.data(), x.data(), acc_v.size());
  }
  for (size_t j = 0; j < acc_s.size(); ++j) {
    // Compare bits: 0.0 vs -0.0 compare equal under ==, so check sign too.
    EXPECT_EQ(acc_s[j], acc_v[j]) << "j=" << j;
    EXPECT_EQ(std::signbit(acc_s[j]), std::signbit(acc_v[j])) << "j=" << j;
  }
}

// The 64-byte-aligned storage contract the kernels DCHECK.
TEST(SimdAlignmentTest, MatrixStorageIsVectorAligned) {
  for (size_t cols : {1u, 3u, 7u, 64u}) {
    Matrix m = RandomMatrix(5, cols, 71 + cols);
    EXPECT_TRUE(IsVectorAligned(m.data().data())) << "cols=" << cols;
  }
  AlignedVector v(13);
  EXPECT_TRUE(IsVectorAligned(v.data()));
}

// ---------------------------------------------------------------------------
// Observability: kernel entry points record which tier served them.
// ---------------------------------------------------------------------------

TEST(SimdObsTest, DispatchCountersAdvancePerTier) {
  Matrix a = RandomMatrix(16, 16, 401);
  Matrix b = RandomMatrix(16, 16, 402);
  {
    ScopedTier tier(Tier::kScalar);
    const uint64_t before = obs::ReadCounter("simd.scalar_dispatches");
    (void)a.MatMul(b);
    EXPECT_EQ(obs::ReadCounter("simd.scalar_dispatches"), before + 1);
  }
  if (simd::CpuHasAvx2Fma()) {
    ScopedTier tier(Tier::kAvx2);
    const uint64_t before = obs::ReadCounter("simd.avx2_dispatches");
    (void)a.MatMul(b);
    (void)SpMM(RandomCsr(16, 16, 0.3, false, 403), b);
    EXPECT_EQ(obs::ReadCounter("simd.avx2_dispatches"), before + 2);
  }
}

}  // namespace
}  // namespace gelc
