/// Tests for ip/solve_kernel.hpp: the task-major layout, the stable cost
/// orders (both sort branches), and warm (filtered) kernels equal to
/// cold (sorted) ones — orders, minimum costs and the regret order —
/// including +inf costs.
#include "ip/solve_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "ip/warm_start.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SolveKernelTest, StableCostOrderMatchesStableSort) {
  // Both sides of the rank-counting / std::stable_sort switch, with
  // ties, signed zeros and +inf costs so stability is exercised.
  util::Xoshiro256 rng(5);
  for (const std::size_t k : {1, 2, 3, 16, 64, 65, 200}) {
    std::vector<double> costs(k);
    for (double& c : costs) {
      const std::size_t draw = rng.index(7);
      c = draw == 0 ? kInf : draw == 6 ? -0.0 : static_cast<double>(draw - 1);
    }
    std::vector<std::uint32_t> got(k);
    stable_cost_order(costs.data(), k, got.data());
    std::vector<std::uint32_t> want(k);
    std::iota(want.begin(), want.end(), std::uint32_t{0});
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return costs[a] < costs[b];
                     });
    EXPECT_EQ(got, want) << "k = " << k;
  }
}

TEST(SolveKernelTest, RowsAreTheInstanceTransposed) {
  util::Xoshiro256 rng(6);
  const AssignmentInstance inst = testing::random_instance(5, 9, rng);
  const SolveKernel kernel(inst);
  ASSERT_EQ(kernel.num_gsps(), 5u);
  ASSERT_EQ(kernel.num_tasks(), 9u);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
      EXPECT_EQ(kernel.costs(t)[g], inst.cost(g, t));
      EXPECT_EQ(kernel.times(t)[g], inst.time(g, t));
    }
    const std::uint32_t* order = kernel.cost_order(t);
    EXPECT_EQ(kernel.min_cost(t), inst.cost(order[0], t));
  }
}

TEST(SolveKernelTest, FilteredKernelEqualsSortedKernel) {
  // Every coalition of a 5-GSP instance whose costs tie heavily and
  // include +inf: the kernel filtered from the parent's CostOrderCache
  // must equal the one sorted directly, regret order included.
  util::Xoshiro256 rng(7);
  AssignmentInstance inst = testing::random_instance(5, 40, rng);
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
      const std::size_t draw = rng.index(5);
      inst.cost(g, t) = draw == 0 ? kInf : static_cast<double>(draw);
    }
  }
  const CostOrderCache cache(inst);
  for (std::uint64_t mask = 1; mask < (1U << inst.num_gsps()); ++mask) {
    std::vector<bool> keep(inst.num_gsps());
    for (std::size_t g = 0; g < keep.size(); ++g) keep[g] = (mask >> g) & 1U;
    std::vector<std::size_t> rows;
    const AssignmentInstance sub = inst.restrict_to(keep, &rows);
    const SolveKernel cold(sub);
    const SolveKernel warm(sub, &cache, &rows);
    EXPECT_FALSE(cold.reused_cost_orders());
    EXPECT_TRUE(warm.reused_cost_orders());
    for (std::size_t t = 0; t < sub.num_tasks(); ++t) {
      const std::vector<std::uint32_t> a(cold.cost_order(t),
                                         cold.cost_order(t) + sub.num_gsps());
      const std::vector<std::uint32_t> b(warm.cost_order(t),
                                         warm.cost_order(t) + sub.num_gsps());
      EXPECT_EQ(a, b) << "mask " << mask << " task " << t;
      EXPECT_EQ(cold.min_cost(t), warm.min_cost(t));
    }
    EXPECT_EQ(cold.regret_order(), warm.regret_order()) << "mask " << mask;
  }
}

TEST(SolveKernelTest, MismatchedHintsAreSortedNotTrusted) {
  util::Xoshiro256 rng(8);
  const AssignmentInstance parent = testing::random_instance(4, 6, rng);
  const CostOrderCache cache(parent);
  std::vector<std::size_t> rows;
  const AssignmentInstance sub =
      parent.restrict_to({true, false, true, true}, &rows);
  const SolveKernel sorted(sub);
  const std::vector<std::vector<std::size_t>> bad_rows = {
      {0, 2},        // too few rows
      {0, 3, 2},     // not increasing
      {0, 2, 2},     // repeated
      {0, 2, 9},     // beyond the parent
  };
  for (const std::vector<std::size_t>& r : bad_rows) {
    const SolveKernel kernel(sub, &cache, &r);
    EXPECT_FALSE(kernel.reused_cost_orders());
    for (std::size_t t = 0; t < sub.num_tasks(); ++t) {
      EXPECT_TRUE(std::equal(kernel.cost_order(t),
                             kernel.cost_order(t) + sub.num_gsps(),
                             sorted.cost_order(t)));
    }
  }
  const CostOrderCache other(testing::random_instance(4, 7, rng));
  EXPECT_FALSE(SolveKernel(sub, &other, &rows).reused_cost_orders());
}

TEST(SolveKernelTest, BuildingValidates) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 3, 1.0);
  inst.time = linalg::Matrix(2, 3, 1.0);
  inst.deadline = 0.0;  // must be > 0
  inst.payment = 10.0;
  EXPECT_THROW((void)SolveKernel(inst), InvalidArgument);
}

}  // namespace
}  // namespace svo::ip
