#include "workload/braun.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

namespace svo::workload {
namespace {

std::vector<double> random_workloads(std::size_t n, util::Xoshiro256& rng) {
  std::vector<double> w(n);
  for (double& x : w) x = rng.uniform(100.0, 10'000.0);
  return w;
}

TEST(BraunTest, ValuesWithinRange) {
  util::Xoshiro256 rng(1);
  const auto w = random_workloads(50, rng);
  BraunOptions opts;  // phi_b = 100, phi_r = 10
  const linalg::Matrix c = generate_braun_costs(8, w, opts, rng);
  for (std::size_t g = 0; g < 8; ++g) {
    for (std::size_t t = 0; t < 50; ++t) {
      EXPECT_GE(c(g, t), 1.0);
      EXPECT_LE(c(g, t), 1000.0);
    }
  }
}

TEST(BraunTest, StrictModeIsWorkloadMonotoneOnEveryGsp) {
  util::Xoshiro256 rng(2);
  const auto w = random_workloads(40, rng);
  BraunOptions opts;
  opts.monotonicity = WorkloadMonotonicity::Strict;
  const linalg::Matrix c = generate_braun_costs(6, w, opts, rng);
  for (std::size_t g = 0; g < 6; ++g) {
    for (std::size_t a = 0; a < 40; ++a) {
      for (std::size_t b = 0; b < 40; ++b) {
        if (w[a] > w[b]) {
          ASSERT_GE(c(g, a), c(g, b))
              << "GSP " << g << ": workload order violated";
        }
      }
    }
  }
}

TEST(BraunTest, StrictModePreservesRowMultiset) {
  // Strict re-ranking must only reorder each GSP's costs, never change
  // their sum (a cheap multiset-preservation proxy plus sortedness).
  util::Xoshiro256 rng(3);
  const auto w = random_workloads(30, rng);
  util::Xoshiro256 rng_strict = rng;
  util::Xoshiro256 rng_none = rng;
  BraunOptions strict;
  strict.monotonicity = WorkloadMonotonicity::Strict;
  BraunOptions none;
  none.monotonicity = WorkloadMonotonicity::None;
  // Note: baseline alignment differs between modes, so compare only the
  // statistical envelope: totals should be of the same magnitude.
  const linalg::Matrix cs = generate_braun_costs(4, w, strict, rng_strict);
  const linalg::Matrix cn = generate_braun_costs(4, w, none, rng_none);
  double sum_s = 0.0;
  double sum_n = 0.0;
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t t = 0; t < 30; ++t) {
      sum_s += cs(g, t);
      sum_n += cn(g, t);
    }
  }
  EXPECT_NEAR(sum_s / sum_n, 1.0, 0.5);
}

TEST(BraunTest, BaselineOnlyModeAlignsBaselineNotRows) {
  // In BaselineOnly mode monotonicity may be violated per GSP, but the
  // *average* cost across GSPs must still increase with workload.
  util::Xoshiro256 rng(4);
  std::vector<double> w{100.0, 5000.0, 20'000.0};
  BraunOptions opts;
  opts.monotonicity = WorkloadMonotonicity::BaselineOnly;
  const linalg::Matrix c = generate_braun_costs(64, w, opts, rng);
  double mean0 = 0.0;
  double mean2 = 0.0;
  for (std::size_t g = 0; g < 64; ++g) {
    mean0 += c(g, 0);
    mean2 += c(g, 2);
  }
  EXPECT_LT(mean0, mean2);
}

TEST(BraunTest, DeterministicInRngState) {
  util::Xoshiro256 a(9);
  util::Xoshiro256 b(9);
  const std::vector<double> w{10.0, 20.0, 30.0};
  const linalg::Matrix ca = generate_braun_costs(3, w, {}, a);
  const linalg::Matrix cb = generate_braun_costs(3, w, {}, b);
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t t = 0; t < 3; ++t) {
      ASSERT_DOUBLE_EQ(ca(g, t), cb(g, t));
    }
  }
}

TEST(BraunTest, RejectsBadArguments) {
  util::Xoshiro256 rng(1);
  EXPECT_THROW((void)generate_braun_costs(0, {1.0}, {}, rng), InvalidArgument);
  EXPECT_THROW((void)generate_braun_costs(2, {}, {}, rng), InvalidArgument);
  BraunOptions bad;
  bad.phi_b = 0.5;
  EXPECT_THROW((void)generate_braun_costs(2, {1.0, 2.0}, bad, rng),
               InvalidArgument);
  // An infinite range could draw inf * 0 = NaN, which no sort orders.
  bad.phi_b = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)generate_braun_costs(2, {1.0, 2.0}, bad, rng),
               InvalidArgument);
}

TEST(BraunTest, LongRowsAreSortedExactly) {
  // Rows from 96 tasks on are radix-sorted: every Strict row, read in
  // workload order, must be non-decreasing and hold the row's values.
  util::Xoshiro256 rng(12);
  for (const std::size_t n : {95, 96, 300}) {
    const auto w = random_workloads(n, rng);
    util::Xoshiro256 strict_rng = rng;
    util::Xoshiro256 none_rng = rng;
    BraunOptions none;
    none.monotonicity = WorkloadMonotonicity::BaselineOnly;
    const linalg::Matrix cs = generate_braun_costs(3, w, {}, strict_rng);
    const linalg::Matrix cb = generate_braun_costs(3, w, none, none_rng);
    std::vector<std::size_t> by_workload(n);
    std::iota(by_workload.begin(), by_workload.end(), std::size_t{0});
    std::stable_sort(by_workload.begin(), by_workload.end(),
                     [&](std::size_t a, std::size_t b) { return w[a] < w[b]; });
    for (std::size_t g = 0; g < 3; ++g) {
      std::vector<double> got(n);
      std::vector<double> want(cb.row(g).begin(), cb.row(g).end());
      for (std::size_t r = 0; r < n; ++r) got[r] = cs(g, by_workload[r]);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "n = " << n << ", GSP " << g;
    }
  }
}

}  // namespace
}  // namespace svo::workload
