/// Tests for ip/solve_kernel.hpp: the task-major layout, the stable cost
/// orders (both sort branches), kernels derived by dropping GSP rows
/// equal to kernels built from the restricted instance — every field and
/// the regret order, including ties and +inf costs — retargeted kernels
/// equal to kernels built with the new deadline and payment, and the
/// B&B ignoring a hinted kernel that does not describe its instance.
#include "ip/solve_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
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

TEST(SolveKernelTest, CostOrdersAreStableSorts) {
  util::Xoshiro256 rng(11);
  const AssignmentInstance inst = testing::random_instance(7, 13, rng);
  const SolveKernel kernel(inst);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    std::vector<std::uint32_t> want(inst.num_gsps());
    std::iota(want.begin(), want.end(), std::uint32_t{0});
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return inst.cost(a, t) < inst.cost(b, t);
                     });
    const std::vector<std::uint32_t> got(
        kernel.cost_order(t), kernel.cost_order(t) + inst.num_gsps());
    EXPECT_EQ(got, want) << "task " << t;
  }
}

/// A random instance with costs drawn from {+inf, 1, 2, 3, 4}: heavy
/// ties, and tasks whose second-cheapest cost (or every cost) is +inf.
AssignmentInstance tie_and_inf_instance(std::size_t k, std::size_t n,
                                        util::Xoshiro256& rng) {
  AssignmentInstance inst = testing::random_instance(k, n, rng);
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
      const std::size_t draw = rng.index(5);
      inst.cost(g, t) = draw == 0 ? kInf : static_cast<double>(draw);
    }
  }
  return inst;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field of `got` equals `want` bit for bit, regret order included.
void expect_same_kernel(const SolveKernel& got, const SolveKernel& want,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.num_gsps(), want.num_gsps());
  ASSERT_EQ(got.num_tasks(), want.num_tasks());
  EXPECT_EQ(bits(got.deadline()), bits(want.deadline()));
  EXPECT_EQ(bits(got.payment()), bits(want.payment()));
  EXPECT_EQ(got.require_all_gsps_used(), want.require_all_gsps_used());
  const std::size_t k = want.num_gsps();
  for (std::size_t t = 0; t < want.num_tasks(); ++t) {
    for (std::size_t g = 0; g < k; ++g) {
      ASSERT_EQ(bits(got.costs(t)[g]), bits(want.costs(t)[g])) << "task " << t;
      ASSERT_EQ(bits(got.times(t)[g]), bits(want.times(t)[g])) << "task " << t;
      ASSERT_EQ(got.cost_order(t)[g], want.cost_order(t)[g]) << "task " << t;
    }
    ASSERT_EQ(bits(got.min_cost(t)), bits(want.min_cost(t))) << "task " << t;
    ASSERT_EQ(bits(got.regret(t)), bits(want.regret(t))) << "task " << t;
  }
  EXPECT_EQ(got.regret_order(), want.regret_order());
}

/// Derive `kernel`'s children for every removal, compare each with the
/// kernel built from the correspondingly restricted instance, and recurse
/// down to one GSP. `rows[r]` is the root row of `kernel`'s row r.
void check_every_removal(const AssignmentInstance& root,
                         const SolveKernel& kernel,
                         const std::vector<std::size_t>& rows,
                         std::size_t* derivations) {
  if (kernel.num_gsps() == 1) return;
  for (std::size_t r = 0; r < kernel.num_gsps(); ++r) {
    std::vector<std::size_t> child_rows = rows;
    child_rows.erase(child_rows.begin() + static_cast<std::ptrdiff_t>(r));
    std::vector<bool> keep(root.num_gsps(), false);
    for (const std::size_t g : child_rows) keep[g] = true;
    const SolveKernel built(root.restrict_to(keep));
    const SolveKernel derived(kernel, r);
    ++*derivations;
    EXPECT_TRUE(derived.derived());
    EXPECT_FALSE(built.derived());
    std::ostringstream label;
    label << "rows";
    for (const std::size_t g : child_rows) label << ' ' << g;
    expect_same_kernel(derived, built, label.str());
    if (::testing::Test::HasFatalFailure()) return;
    check_every_removal(root, derived, child_rows, derivations);
  }
}

TEST(SolveKernelTest, DerivedKernelEqualsBuiltKernel) {
  // Every removal sequence of a 6-GSP instance down to one GSP, with
  // heavy ties and +inf costs: each derived kernel must equal the one
  // built from restrict_to's output, the regret order included. That
  // covers tasks whose two cheapest GSPs lose one, regrets that turn 0
  // when the second-cheapest cost becomes +inf, and k reaching 1.
  util::Xoshiro256 rng(7);
  for (const std::size_t n : {1, 40}) {
    const AssignmentInstance inst = tie_and_inf_instance(6, n, rng);
    std::vector<std::size_t> rows(inst.num_gsps());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    std::size_t derivations = 0;
    check_every_removal(inst, SolveKernel(inst), rows, &derivations);
    EXPECT_EQ(derivations, 6u + 30 + 120 + 360 + 720);  // 6!/j! summed
  }
  // Uniform costs: regrets are distinct, so every changed task moves.
  const AssignmentInstance inst = testing::random_instance(5, 300, rng);
  std::vector<std::size_t> rows = {0, 1, 2, 3, 4};
  std::size_t derivations = 0;
  check_every_removal(inst, SolveKernel(inst), rows, &derivations);
  EXPECT_EQ(derivations, 5u + 20 + 60 + 120);
}

TEST(SolveKernelTest, DerivedOrdersEqualRestrictedSort) {
  // Independent of the kernel build: dropping each row, the derived
  // cost orders equal a direct stable sort of the restricted instance.
  util::Xoshiro256 rng(12);
  const AssignmentInstance inst = testing::random_instance(6, 10, rng);
  const SolveKernel parent(inst);
  for (std::size_t removed = 0; removed < inst.num_gsps(); ++removed) {
    std::vector<bool> keep(inst.num_gsps(), true);
    keep[removed] = false;
    const AssignmentInstance sub = inst.restrict_to(keep);
    const SolveKernel derived(parent, removed);
    for (std::size_t t = 0; t < sub.num_tasks(); ++t) {
      std::vector<std::uint32_t> direct(sub.num_gsps());
      std::iota(direct.begin(), direct.end(), std::uint32_t{0});
      std::stable_sort(direct.begin(), direct.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return sub.cost(a, t) < sub.cost(b, t);
                       });
      const std::vector<std::uint32_t> got(
          derived.cost_order(t), derived.cost_order(t) + sub.num_gsps());
      EXPECT_EQ(got, direct) << "removed " << removed << " task " << t;
    }
  }
}

TEST(SolveKernelTest, DerivationNeedsARowAndASurvivor) {
  util::Xoshiro256 rng(9);
  const SolveKernel two(testing::random_instance(2, 5, rng));
  EXPECT_THROW((void)SolveKernel(two, 2), InvalidArgument);
  const SolveKernel one(two, 1);
  EXPECT_EQ(one.num_gsps(), 1u);
  EXPECT_THROW((void)SolveKernel(one, 0), InvalidArgument);
}

TEST(SolveKernelTest, MismatchedKernelIsIgnored) {
  // A hinted kernel whose k, n, deadline, payment or (13) flag differs
  // from the instance's is not read: the solve equals the cold one,
  // node for node, and a mismatched derived kernel does not trigger the
  // warm node cap either.
  util::Xoshiro256 rng(8);
  const AssignmentInstance inst = testing::random_instance(4, 9, rng);
  BnbOptions opts;
  opts.seed_with_greedy = false;  // the search must reach its own leaves
  opts.warm_max_nodes = 1;
  const BnbAssignmentSolver solver(opts);
  const AssignmentSolution cold = solver.solve(inst);
  ASSERT_GT(cold.stats.nodes, 1u);  // a wrongly applied cap would show

  AssignmentInstance wider = inst;
  wider.cost = linalg::Matrix(5, 9, 1.0);
  wider.time = linalg::Matrix(5, 9, 1.0);
  AssignmentInstance longer = testing::random_instance(4, 10, rng);
  longer.deadline = inst.deadline;
  longer.payment = inst.payment;
  AssignmentInstance later = inst;
  later.deadline *= 2.0;
  AssignmentInstance richer = inst;
  richer.payment *= 2.0;
  AssignmentInstance uncovered = inst;
  uncovered.require_all_gsps_used = false;
  for (const AssignmentInstance* other :
       {&wider, &longer, &later, &richer, &uncovered}) {
    WarmStart warm;
    warm.kernel = std::make_shared<const SolveKernel>(*other);
    const AssignmentSolution hot = solver.solve(inst, warm);
    EXPECT_EQ(hot.stats.nodes, cold.stats.nodes);
    EXPECT_EQ(hot.stats.status, cold.stats.status);
    EXPECT_EQ(hot.cost, cold.cost);
    EXPECT_EQ(hot.assignment, cold.assignment);
  }
  // Derived from a 5-GSP parent with the wrong deadline: derived, same
  // shape, still ignored.
  wider.deadline = inst.deadline * 3.0;
  WarmStart warm;
  warm.kernel = std::make_shared<const SolveKernel>(SolveKernel(wider), 4);
  ASSERT_TRUE(warm.kernel->derived());
  const AssignmentSolution hot = solver.solve(inst, warm);
  EXPECT_EQ(hot.stats.nodes, cold.stats.nodes);
  EXPECT_EQ(hot.stats.status, cold.stats.status);
  EXPECT_EQ(hot.cost, cold.cost);
}

TEST(SolveKernelTest, RetargetedKernelEqualsBuiltKernel) {
  // Retargeting changes the deadline and the payment and nothing else:
  // the result equals a kernel built with the new values, and the greedy
  // solver, polished or not, solves both alike.
  util::Xoshiro256 rng(21);
  AssignmentInstance inst = testing::random_instance(6, 40, rng);
  SolveKernel kernel(inst);
  inst.deadline *= 0.8;
  inst.payment *= 1.5;
  kernel.retarget(inst.deadline, inst.payment);
  expect_same_kernel(kernel, SolveKernel(inst), "retargeted");
  for (const bool polish : {true, false}) {
    GreedyOptions opts;
    opts.polish = polish;
    const GreedyAssignmentSolver greedy(opts);
    const AssignmentSolution a = greedy.solve(kernel);
    const AssignmentSolution b = greedy.solve(inst);
    EXPECT_EQ(a.stats.status, b.stats.status) << "polish " << polish;
    EXPECT_EQ(a.assignment, b.assignment) << "polish " << polish;
    EXPECT_EQ(bits(a.cost), bits(b.cost)) << "polish " << polish;
  }
  // Refused where AssignmentInstance::validate refuses, kernel untouched.
  EXPECT_THROW(kernel.retarget(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(kernel.retarget(std::nan(""), 1.0), InvalidArgument);
  EXPECT_THROW(kernel.retarget(1.0, -1.0), InvalidArgument);
  expect_same_kernel(kernel, SolveKernel(inst), "after refused retargets");
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
