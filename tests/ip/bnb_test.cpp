#include "ip/bnb.hpp"

#include <gtest/gtest.h>

#include "ip/warm_start.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

TEST(BnbTest, TrivialTwoByTwoOptimal) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 10}, {10, 1}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 2.0;
  inst.payment = 100.0;
  const BnbAssignmentSolver solver;
  const AssignmentSolution sol = solver.solve(inst);
  ASSERT_EQ(sol.stats.status, AssignStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.cost, 2.0);
  EXPECT_EQ(sol.assignment, (Assignment{0, 1}));
}

TEST(BnbTest, CoverageForcesExpensiveGsp) {
  // GSP 1 is costly for everything, but constraint (13) forces it to get
  // at least one task.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1, 1}, {50, 60, 70}});
  inst.time = linalg::Matrix::from_rows({{1, 1, 1}, {1, 1, 1}});
  inst.deadline = 5.0;
  inst.payment = 1000.0;
  const BnbAssignmentSolver solver;
  const AssignmentSolution sol = solver.solve(inst);
  ASSERT_EQ(sol.stats.status, AssignStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.cost, 1.0 + 1.0 + 50.0);
}

TEST(BnbTest, InfeasibleWhenMoreGspsThanTasks) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(3, 2, 1.0);
  inst.time = linalg::Matrix(3, 2, 1.0);
  inst.deadline = 10.0;
  inst.payment = 100.0;
  EXPECT_EQ(BnbAssignmentSolver().solve(inst).stats.status,
            AssignStatus::Infeasible);
}

TEST(BnbTest, InfeasibleWhenDeadlineTooTight) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 1.0);
  inst.time = linalg::Matrix(2, 2, 5.0);
  inst.deadline = 1.0;  // no task fits anywhere
  inst.payment = 100.0;
  EXPECT_EQ(BnbAssignmentSolver().solve(inst).stats.status,
            AssignStatus::Infeasible);
}

TEST(BnbTest, ScreensUseTheSearchTolerance) {
  // The task overruns the deadline by less than the search's tolerance,
  // which check_feasible accepts: a root screen that compared against the
  // bare deadline would prove the cold solve infeasible while the warm
  // solve, seeded with {0}, returned it as optimal.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(1, 1, 1.0);
  inst.time = linalg::Matrix(1, 1, 1.0 + 0.5e-9);
  inst.deadline = 1.0;
  inst.payment = 10.0;
  ASSERT_EQ(check_feasible(inst, Assignment{0}), "");
  const BnbAssignmentSolver solver;
  WarmStart warm;
  warm.incumbent = {0};
  warm.incumbent_cost = 1.0;
  for (const AssignmentSolution& sol : {solver.solve(inst),
                                        solver.solve(inst, warm)}) {
    EXPECT_EQ(sol.stats.status, AssignStatus::Optimal);
    EXPECT_EQ(sol.cost, 1.0);
    EXPECT_EQ(sol.assignment, Assignment{0});
  }
}

TEST(BnbTest, InfeasibleWhenPaymentTooLow) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 10.0);
  inst.time = linalg::Matrix(2, 2, 1.0);
  inst.deadline = 10.0;
  inst.payment = 5.0;  // min total cost is 20
  EXPECT_EQ(BnbAssignmentSolver().solve(inst).stats.status,
            AssignStatus::Infeasible);
}

TEST(BnbTest, DeadlineForcesCostlierSpread) {
  // Cheapest GSP can hold only one task by time; optimum must split.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1}, {10, 10}});
  inst.time = linalg::Matrix::from_rows({{3, 3}, {1, 1}});
  inst.deadline = 3.0;
  inst.payment = 100.0;
  const AssignmentSolution sol = BnbAssignmentSolver().solve(inst);
  ASSERT_EQ(sol.stats.status, AssignStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.cost, 11.0);
}

TEST(BnbTest, SolutionAlwaysPassesFeasibilityCheck) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const AssignmentInstance inst =
        testing::random_instance(3, 6, rng, /*tight=*/true);
    const AssignmentSolution sol = BnbAssignmentSolver().solve(inst);
    if (sol.has_assignment()) {
      EXPECT_EQ(check_feasible(inst, sol.assignment), "");
      EXPECT_NEAR(sol.cost, assignment_cost(inst, sol.assignment), 1e-9);
    }
  }
}

TEST(BnbTest, NodeBudgetYieldsAnytimeResult) {
  util::Xoshiro256 rng(13);
  const AssignmentInstance inst = testing::random_instance(4, 12, rng);
  BnbOptions opts;
  opts.max_nodes = 5;
  opts.seed_with_greedy = true;
  const AssignmentSolution sol = BnbAssignmentSolver(opts).solve(inst);
  // With a greedy seed we must at least have a feasible incumbent.
  EXPECT_TRUE(sol.stats.status == AssignStatus::Feasible ||
              sol.stats.status == AssignStatus::Optimal);
  if (sol.has_assignment()) {
    EXPECT_EQ(check_feasible(inst, sol.assignment), "");
  }
}

TEST(BnbTest, LowerBoundNeverExceedsOptimum) {
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const AssignmentInstance inst = testing::random_instance(3, 5, rng);
    const AssignmentSolution sol = BnbAssignmentSolver().solve(inst);
    if (sol.has_assignment()) {
      EXPECT_LE(sol.lower_bound, sol.cost + 1e-9);
    }
  }
}

/// The central correctness property: exact B&B == exhaustive enumeration,
/// across many random instances including tight (often infeasible) ones.
class BnbBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(BnbBruteForceTest, MatchesBruteForce) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const std::size_t k = 2 + rng.index(2);   // 2..3 GSPs
  const std::size_t n = k + rng.index(5);   // k..k+4 tasks
  const AssignmentInstance inst =
      testing::random_instance(k, n, rng, /*tight=*/GetParam() % 2 == 0);
  const auto oracle = testing::brute_force_optimum(inst);
  const AssignmentSolution sol = BnbAssignmentSolver().solve(inst);
  if (oracle.has_value()) {
    ASSERT_EQ(sol.stats.status, AssignStatus::Optimal)
        << "k=" << k << " n=" << n;
    EXPECT_NEAR(sol.cost, *oracle, 1e-7);
    EXPECT_EQ(check_feasible(inst, sol.assignment), "");
  } else {
    EXPECT_EQ(sol.stats.status, AssignStatus::Infeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BnbBruteForceTest,
                         ::testing::Range(1, 41));

}  // namespace
}  // namespace svo::ip
