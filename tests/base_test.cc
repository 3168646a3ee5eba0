// Unit tests for base: Status/Result, hashing/interning, Rng.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"

namespace gelc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIOError,
        StatusCode::kArithmeticOverflow}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GELC_ASSIGN_OR_RETURN(int h, Half(x));
  GELC_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(HashTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("\0", 1));
}

TEST(HashTest, CombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(InternerTest, AssignsDenseIdsFirstSeenOrder) {
  Interner in;
  EXPECT_EQ(in.Intern("x"), 0u);
  EXPECT_EQ(in.Intern("y"), 1u);
  EXPECT_EQ(in.Intern("x"), 0u);
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, WordsDistinguishOrderAndContent) {
  Interner in;
  uint64_t a = in.InternWords({1, 2, 3});
  uint64_t b = in.InternWords({3, 2, 1});
  uint64_t c = in.InternWords({1, 2, 3});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST(InternerTest, EraseFreesTheIdForTheNextNewSignature) {
  Interner in;
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.Intern("b"), 1u);
  in.Erase(0);
  EXPECT_EQ(in.size(), 1u);
  EXPECT_EQ(in.Intern("b"), 1u);  // survivors keep their ids
  EXPECT_EQ(in.Intern("c"), 0u);  // the freed id goes to the next new one
  EXPECT_EQ(in.Intern("a"), 2u);  // an erased signature is new again
  in.Erase(2);
  EXPECT_EQ(in.Intern("a"), 2u);  // erase, then re-intern
  // The empty signature is a signature like any other.
  EXPECT_EQ(in.Intern(""), 3u);
  EXPECT_EQ(in.Intern(std::string_view()), 3u);
  in.Erase(3);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(in.Intern(std::string_view()), 3u);
}

TEST(InternerTest, LongSignaturesAndErasedBytesAreReused) {
  Interner in;
  const std::string big(Interner::kChunkBytes + 9, 'x');
  const uint64_t id = in.Intern(big);
  EXPECT_EQ(in.Intern(big), id);
  EXPECT_NE(in.Intern(std::string_view(big).substr(1)), id);
  // Churn at a constant live count: the erased regions take the new
  // signatures, so the arena does not grow.
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 1000; ++i) ids.push_back(in.InternWords({i, i}));
  const size_t arena = in.arena_bytes();
  for (uint64_t round = 1; round <= 10; ++round) {
    for (uint64_t old : ids) in.Erase(old);
    ids.clear();
    for (uint64_t i = 0; i < 1000; ++i)
      ids.push_back(in.InternWords({i, i + round}));
  }
  EXPECT_EQ(in.size(), 1002u);
  EXPECT_EQ(in.arena_bytes(), arena);
}

// Seeded differential against a std::map reference over 10^5 interleaved
// Intern/Erase calls. Keys come from a small pool (so the table churns
// around a steady live set) that holds the empty signature and one longer
// than an arena chunk. After every Erase every live key is looked up
// again, which reaches each key that backward-shift deletion moved.
TEST(InternerTest, EraseMatchesMapReference) {
  Rng rng(2027);
  std::vector<std::string> pool = {
      "", std::string(Interner::kChunkBytes + 1, 'L')};
  while (pool.size() < 400) {
    std::string key(rng.NextBounded(40), '\0');
    for (char& c : key) c = static_cast<char>('a' + rng.NextBounded(4));
    pool.push_back(std::move(key));
  }
  Interner in;
  std::map<std::string, uint64_t> ref;
  std::set<uint64_t> live_ids;
  uint64_t next_fresh = 0;  // ids handed out so far: 0 .. next_fresh - 1
  size_t erases = 0;
  for (int op = 0; op < 100000; ++op) {
    if (!ref.empty() && rng.NextBounded(5) < 2) {
      auto it = std::next(ref.begin(),
                          static_cast<long>(rng.NextBounded(ref.size())));
      in.Erase(it->second);
      live_ids.erase(it->second);
      ref.erase(it);
      ++erases;
      for (const auto& [key, id] : ref) ASSERT_EQ(in.Intern(key), id);
    } else {
      const std::string& key = pool[rng.NextBounded(pool.size())];
      const uint64_t id = in.Intern(key);
      auto [it, inserted] = ref.emplace(key, id);
      if (!inserted) {
        ASSERT_EQ(id, it->second) << "op " << op;
      } else {
        // A new signature takes a freed id while there is one, else the
        // next fresh id; never the id of a live signature.
        ASSERT_TRUE(live_ids.insert(id).second) << "op " << op;
        if (ref.size() <= next_fresh) {
          ASSERT_LT(id, next_fresh) << "op " << op;
        } else {
          ASSERT_EQ(id, next_fresh++) << "op " << op;
        }
      }
    }
    ASSERT_EQ(in.size(), ref.size());
  }
  EXPECT_GT(erases, 30000u);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.NextBounded(13);
    EXPECT_LT(x, 13u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(42);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  std::vector<size_t> p = rng.Permutation(50);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, ForkIndependent) {
  Rng a(9);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

}  // namespace
}  // namespace gelc
