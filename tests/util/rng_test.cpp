#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "tests/pin_hash.hpp"

namespace svo::util {
namespace {

TEST(Xoshiro256Test, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256Test, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256Test, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Xoshiro256Test, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 2.25);
  }
}

TEST(Xoshiro256Test, UniformRejectsInvertedRange) {
  Xoshiro256 rng(7);
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), InvalidArgument);
}

TEST(Xoshiro256Test, UniformIntCoversInclusiveRange) {
  Xoshiro256 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values hit
}

TEST(Xoshiro256Test, IndexIsApproximatelyUniform) {
  Xoshiro256 rng(13);
  constexpr std::size_t kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.index(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 10.0, kDraws / 10.0 * 0.1);
  }
}

TEST(Xoshiro256Test, IndexDrawsArePinned) {
  // FNV-1a over the first 1000 draws per bound. The bounds cover the
  // trivial range, small and paper-scale task counts, and two ranges
  // where rejection is frequent (2^63 + 1 rejects almost half of all
  // raw draws), so any change to the rejection rule shows here.
  struct Case {
    std::size_t n;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {1, 0x51e78e744621f425ULL},
      {3, 0x36b6440e20af2de4ULL},
      {256, 0xd13f971f3ed7ac32ULL},
      {8192, 0x50287fffd7c43bfcULL},
      {(std::size_t{1} << 32) + 1, 0x1539fd7075c676f7ULL},
      {(std::size_t{1} << 63) + 1, 0x5181b81734a1336fULL},
  };
  for (const Case& c : cases) {
    Xoshiro256 rng(42);
    pin::Fnv1a h;
    for (int i = 0; i < 1000; ++i) h.add(rng.index(c.n));
    EXPECT_EQ(h.value(), c.hash)
        << "n = " << c.n << " got 0x" << std::hex << h.value();
  }
}

TEST(Xoshiro256Test, IndexZeroThrows) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)rng.index(0), InvalidArgument);
}

TEST(Xoshiro256Test, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(Xoshiro256Test, BernoulliRejectsBadProbability) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)rng.bernoulli(-0.1), InvalidArgument);
  EXPECT_THROW((void)rng.bernoulli(1.1), InvalidArgument);
}

TEST(Xoshiro256Test, NormalHasExpectedMoments) {
  Xoshiro256 rng(19);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.03);
}

TEST(Xoshiro256Test, ExponentialHasExpectedMean) {
  Xoshiro256 rng(23);
  double sum = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Xoshiro256Test, SplitProducesIndependentStream) {
  Xoshiro256 a(31);
  Xoshiro256 child = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == child());
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256Test, ShuffleIsPermutation) {
  Xoshiro256 rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Xoshiro256Test, PickThrowsOnEmpty) {
  Xoshiro256 rng(1);
  const std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), InvalidArgument);
}

TEST(DeriveSeedTest, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(99, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeedTest, DeterministicInInputs) {
  EXPECT_EQ(derive_seed(5, 9), derive_seed(5, 9));
  EXPECT_NE(derive_seed(5, 9), derive_seed(6, 9));
  EXPECT_NE(derive_seed(5, 9), derive_seed(5, 10));
}

// Property sweep: index() stays in range for many (seed, n) pairs.
class IndexRangeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexRangeTest, AlwaysInRange) {
  Xoshiro256 rng(GetParam());
  for (std::size_t n : {1ul, 2ul, 3ul, 10ul, 1000ul, 1'000'000ul}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.index(n), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexRangeTest,
                         ::testing::Values(1, 2, 3, 1234, 99999));

}  // namespace
}  // namespace svo::util
