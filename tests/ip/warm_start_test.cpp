/// Tests for ip/warm_start.hpp: the removal-repair step and the
/// warm-started B&B with derived kernels. The load-bearing
/// property throughout: warm hints never change what an exact solve
/// returns — status and cost must match the cold solve bit for bit.
#include "ip/warm_start.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

/// Restrict `inst` to all rows except `removed`; fills `rows` with the
/// surviving parent indices.
AssignmentInstance drop_row(const AssignmentInstance& inst,
                            std::size_t removed,
                            std::vector<std::size_t>* rows) {
  std::vector<bool> keep(inst.num_gsps(), true);
  keep[removed] = false;
  return inst.restrict_to(keep, rows);
}

TEST(RepairTest, KeepsSurvivorsAndReinsertsOrphans) {
  util::Xoshiro256 rng(21);
  const AssignmentInstance inst = testing::random_instance(5, 12, rng);
  const BnbAssignmentSolver solver;
  const AssignmentSolution parent = solver.solve(inst);
  ASSERT_TRUE(parent.has_assignment());

  const std::size_t removed = parent.assignment[0];  // a used GSP
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, removed, &rows);
  const RepairResult r =
      repair_for_removal(sub, rows, parent.assignment, removed);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(check_feasible(sub, r.assignment).empty());
  EXPECT_DOUBLE_EQ(r.cost, assignment_cost(sub, r.assignment));
  EXPECT_GE(r.moves, 1u);  // at least the orphaned task moved
  // Surviving tasks keep their executor (in parent coordinates).
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (parent.assignment[t] != removed) {
      EXPECT_EQ(rows[r.assignment[t]], parent.assignment[t]) << "task " << t;
    }
  }
}

TEST(RepairTest, FailsCleanlyWhenNoGspCanAbsorb) {
  // Two GSPs, two tasks, deadline so tight each GSP can hold exactly the
  // task it started with: removing a GSP leaves its task homeless.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 1.0);
  inst.time = linalg::Matrix(2, 2);
  inst.time(0, 0) = 1.0;
  inst.time(0, 1) = 1.0;
  inst.time(1, 0) = 1.0;
  inst.time(1, 1) = 1.0;
  inst.deadline = 1.0;  // one task per GSP, never two
  inst.payment = 10.0;
  const Assignment parent = {0, 1};
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, 1, &rows);
  const RepairResult r = repair_for_removal(sub, rows, parent, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(RepairTest, RejectsMappingOntoUnknownRow) {
  util::Xoshiro256 rng(23);
  const AssignmentInstance inst = testing::random_instance(4, 6, rng);
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, 3, &rows);
  Assignment parent(inst.num_tasks(), 0);
  parent[2] = 7;  // row that never existed
  const RepairResult r = repair_for_removal(sub, rows, parent, 3);
  EXPECT_FALSE(r.ok);
}

/// Warm and cold exact solves must agree bit for bit across random
/// instances and every removal choice.
TEST(WarmBnbTest, WarmEqualsColdOnEveryRemoval) {
  const BnbAssignmentSolver solver;  // default budget: exact at this size
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Xoshiro256 rng(seed);
    const AssignmentInstance inst =
        testing::random_instance(5, 11, rng, /*tight=*/seed % 2 == 0);
    const AssignmentSolution parent = solver.solve(inst);
    if (!parent.has_assignment()) continue;
    const SolveKernel parent_kernel(inst);

    for (std::size_t removed = 0; removed < inst.num_gsps(); ++removed) {
      std::vector<std::size_t> rows;
      const AssignmentInstance sub = drop_row(inst, removed, &rows);

      const AssignmentSolution cold = solver.solve(sub);

      WarmStart warm;
      warm.kernel = std::make_shared<const SolveKernel>(parent_kernel, removed);
      const RepairResult r =
          repair_for_removal(sub, rows, parent.assignment, removed);
      if (r.ok) {
        warm.incumbent = r.assignment;
        warm.incumbent_cost = r.cost;
        warm.repair_moves = r.moves;
      }
      const AssignmentSolution hot = solver.solve(sub, warm);

      EXPECT_EQ(hot.stats.status, cold.stats.status)
          << "seed " << seed << " removed " << removed;
      if (cold.has_assignment()) {
        EXPECT_EQ(hot.cost, cold.cost)  // bit-identical, not approximate
            << "seed " << seed << " removed " << removed;
        EXPECT_EQ(hot.assignment, cold.assignment);
      }
      EXPECT_LE(hot.stats.nodes, cold.stats.nodes);
    }
  }
}

TEST(WarmBnbTest, InfiniteSecondCostKeepsWarmOrderEqualToCold) {
  // validate() accepts +inf costs. GSP 3 charges +inf for every even
  // task, so in coalition {0, 3} those tasks' second-cheapest cost is
  // +inf and their regret is 0. A warm solve that took the regret as
  // second - best would rank them first (+inf) and branch in another
  // order than the cold solve: same proof, different node count.
  const BnbAssignmentSolver solver;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Xoshiro256 rng(seed);
    AssignmentInstance inst =
        testing::random_instance(4, 10, rng, /*tight=*/seed % 2 == 0);
    for (std::size_t t = 0; t < inst.num_tasks(); t += 2) {
      inst.cost(3, t) = std::numeric_limits<double>::infinity();
    }
    const AssignmentInstance sub =
        inst.restrict_to({true, false, false, true});
    // Drop GSP 2, then GSP 1 (row 1 of the remaining {0, 1, 3}).
    WarmStart bounds;
    bounds.kernel = std::make_shared<const SolveKernel>(
        SolveKernel(SolveKernel(inst), 2), 1);

    const AssignmentSolution cold = solver.solve(sub);
    const AssignmentSolution warm = solver.solve(sub, bounds);
    EXPECT_EQ(warm.stats.nodes, cold.stats.nodes) << "seed " << seed;
    EXPECT_EQ(warm.stats.status, cold.stats.status) << "seed " << seed;
    EXPECT_EQ(warm.cost, cold.cost) << "seed " << seed;
  }
}

TEST(WarmBnbTest, ReportsWarmStartTelemetry) {
  util::Xoshiro256 rng(31);
  const AssignmentInstance inst = testing::random_instance(5, 10, rng);
  const BnbAssignmentSolver solver;
  const AssignmentSolution parent = solver.solve(inst);
  ASSERT_TRUE(parent.has_assignment());

  const std::size_t removed = parent.assignment[0];
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, removed, &rows);
  const RepairResult r =
      repair_for_removal(sub, rows, parent.assignment, removed);
  ASSERT_TRUE(r.ok);
  WarmStart warm;
  warm.incumbent = r.assignment;
  warm.incumbent_cost = r.cost;
  warm.repair_moves = r.moves;
  const AssignmentSolution hot = solver.solve(sub, warm);
  EXPECT_TRUE(hot.stats.warm_start_used);
  EXPECT_DOUBLE_EQ(hot.stats.incumbent_reused_cost, r.cost);
  EXPECT_EQ(hot.stats.repair_moves, r.moves);

  const AssignmentSolution cold = solver.solve(sub);
  EXPECT_FALSE(cold.stats.warm_start_used);
}

TEST(WarmBnbTest, IncoherentHintsAreIgnoredNotFatal) {
  util::Xoshiro256 rng(37);
  const AssignmentInstance inst = testing::random_instance(4, 8, rng);
  const AssignmentInstance other = testing::random_instance(6, 9, rng);
  const BnbAssignmentSolver solver;
  WarmStart warm;
  warm.kernel = std::make_shared<const SolveKernel>(other);  // wrong shape
  warm.incumbent = Assignment(3, 0);                         // wrong arity
  warm.incumbent_cost = 1.0;
  const AssignmentSolution hot = solver.solve(inst, warm);
  const AssignmentSolution cold = solver.solve(inst);
  EXPECT_EQ(hot.stats.status, cold.stats.status);
  EXPECT_EQ(hot.cost, cold.cost);
  EXPECT_FALSE(hot.stats.warm_start_used);
}

TEST(WarmBnbTest, WarmBudgetCapsReVerificationOnly) {
  // warm_max_nodes caps only warm-hinted solves: cold solves keep the
  // full budget, a capped warm solve truncates but keeps the incumbent,
  // and a cap the exact solve fits inside is invisible.
  // Find an instance whose optimum is strictly cheaper than the
  // time-descending greedy seed: the improving leaf then sits below an
  // unpruned subtree, so a 1-node cap is guaranteed to truncate.
  AssignmentInstance inst;
  Assignment seed;
  double seed_cost = 0.0;
  AssignmentSolution cold;
  bool found = false;
  for (std::uint64_t s = 47; s < 80 && !found; ++s) {
    util::Xoshiro256 rng(s);
    inst = testing::random_instance(5, 12, rng, /*tight=*/true);
    seed = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
    if (seed.empty()) continue;
    seed_cost = assignment_cost(inst, seed);
    if (seed_cost > inst.payment) continue;
    cold = BnbAssignmentSolver().solve(inst);
    found = cold.stats.status == AssignStatus::Optimal &&
            cold.cost < seed_cost - 1e-6;
  }
  ASSERT_TRUE(found);

  BnbOptions opts;
  opts.seed_with_greedy = false;  // the warm incumbent is the only seed
  opts.warm_max_nodes = 1;
  const BnbAssignmentSolver capped(opts);
  // Cold solves ignore the warm cap entirely.
  const AssignmentSolution still_cold = capped.solve(inst);
  EXPECT_EQ(still_cold.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(still_cold.cost, cold.cost);

  WarmStart warm;
  warm.incumbent = seed;
  warm.incumbent_cost = seed_cost;
  const AssignmentSolution hot = capped.solve(inst, warm);
  EXPECT_EQ(hot.stats.status, AssignStatus::Feasible);  // truncated, honest
  EXPECT_LE(hot.stats.nodes, 1u);
  EXPECT_EQ(hot.cost, seed_cost);  // kept the incumbent, found no better
  EXPECT_EQ(hot.assignment, seed);

  // A cap the exact solve fits inside is invisible: bit-identical.
  opts.warm_max_nodes = 0;
  const AssignmentSolution uncapped = BnbAssignmentSolver(opts).solve(inst, warm);
  ASSERT_EQ(uncapped.stats.status, AssignStatus::Optimal);
  opts.warm_max_nodes = uncapped.stats.nodes + 10;
  const AssignmentSolution roomy = BnbAssignmentSolver(opts).solve(inst, warm);
  EXPECT_EQ(roomy.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(roomy.stats.nodes, uncapped.stats.nodes);
  EXPECT_EQ(roomy.cost, cold.cost);
}

TEST(WarmStartTest, BaseSolverDefaultIgnoresHints) {
  util::Xoshiro256 rng(41);
  const AssignmentInstance inst = testing::random_instance(4, 8, rng);
  const GreedyAssignmentSolver greedy;
  const AssignmentSolver& base = greedy;
  WarmStart warm;  // empty hints
  const AssignmentSolution a = base.solve(inst, warm);
  const AssignmentSolution b = base.solve(inst);
  EXPECT_EQ(a.stats.status, b.stats.status);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(SolveStatsTest, AccumulateSumsAndLatches) {
  SolveStats total;
  SolveStats a;
  a.status = AssignStatus::Optimal;
  a.nodes = 10;
  SolveStats b;
  b.status = AssignStatus::Infeasible;
  b.nodes = 5;
  b.warm_start_used = true;
  b.incumbent_reused_cost = 3.5;
  b.repair_moves = 2;
  total.accumulate(a);
  total.accumulate(b);
  EXPECT_EQ(total.status, AssignStatus::Infeasible);  // last status wins
  EXPECT_EQ(total.nodes, 15u);
  EXPECT_TRUE(total.warm_start_used);
  EXPECT_DOUBLE_EQ(total.incumbent_reused_cost, 3.5);
  EXPECT_EQ(total.repair_moves, 2u);
}

}  // namespace
}  // namespace svo::ip
