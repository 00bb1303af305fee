/// The B&B's root capacity certificate, ip::capacity_infeasible: it must
/// never fire on an instance that has an assignment within the search's
/// deadline test, it must fire where the tasks' work exceeds the
/// coalition's capacity, and a solve it fires on ends Infeasible at 0
/// nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ip/bnb.hpp"
#include "ip/solve_kernel.hpp"
#include "ip/warm_start.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace svo::ip {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-9;  ///< the B&B's deadline tolerance

/// How an instance's execution times are drawn.
enum class Times { Consistent, Inconsistent, WithInfinities };

/// k GSPs and n tasks near the capacity boundary: times w_t / s_g
/// (Consistent), independent draws (Inconsistent), or independent draws
/// with about one entry in five set to +inf. The deadline is the mean
/// finite load of an even spread, scaled by a slack in [0.6, 1.4].
AssignmentInstance boundary_instance(std::size_t k, std::size_t n, Times kind,
                                     util::Xoshiro256& rng) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(k, n, 1.0);
  inst.time = linalg::Matrix(k, n);
  std::vector<double> speed(k);
  for (double& s : speed) s = rng.uniform(0.5, 2.0);
  double finite = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double work = rng.uniform(1.0, 10.0);
    for (std::size_t g = 0; g < k; ++g) {
      double tm = kind == Times::Consistent ? work / speed[g]
                                            : rng.uniform(0.5, 8.0);
      if (kind == Times::WithInfinities && rng.index(5) == 0) tm = kInf;
      inst.time(g, t) = tm;
      if (std::isfinite(tm)) {
        finite += tm;
        ++count;
      }
    }
  }
  const double mean_load = count > 0 ? finite / static_cast<double>(count) *
                                           static_cast<double>(n) /
                                           static_cast<double>(k)
                                     : 1.0;
  inst.deadline = rng.uniform(0.6, 1.4) * mean_load;
  inst.payment = kInf;
  return inst;
}

/// True when some assignment keeps every GSP's load, summed in task
/// order, within deadline + kTol: the B&B's deadline test, without the
/// payment (10) or coverage (13). Exhaustive; times are positive, so a
/// partial load over the limit prunes exactly.
bool fits_exhaustively(const AssignmentInstance& inst, std::size_t t,
                       std::vector<double>& load) {
  if (t == inst.num_tasks()) return true;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    const double before = load[g];
    load[g] += inst.time(g, t);
    const bool ok = load[g] <= inst.deadline + kTol &&
                    fits_exhaustively(inst, t + 1, load);
    load[g] = before;
    if (ok) return true;
  }
  return false;
}

bool fits_exhaustively(const AssignmentInstance& inst) {
  std::vector<double> load(inst.num_gsps(), 0.0);
  return fits_exhaustively(inst, 0, load);
}

/// Two GSPs of speeds 1 and 2 and three tasks of work 1, 2 and 3:
/// 6 units of work against a capacity of d x 3.
AssignmentInstance two_speed_instance(double deadline) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1, 1}, {2, 2, 2}});
  inst.time = linalg::Matrix::from_rows({{1, 2, 3}, {0.5, 1, 1.5}});
  inst.deadline = deadline;
  inst.payment = 100.0;
  return inst;
}

TEST(CapacityScreenTest, NeverFiresWhereAnAssignmentFits) {
  util::Xoshiro256 rng(2024);
  std::size_t fired = 0;
  std::size_t infeasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t k = 1 + rng.index(4);  // 1..4 GSPs
    const std::size_t n = 1 + rng.index(8);  // 1..8 tasks
    const auto kind = static_cast<Times>(trial % 3);
    const AssignmentInstance inst = boundary_instance(k, n, kind, rng);
    const bool fits = fits_exhaustively(inst);
    infeasible += fits ? 0 : 1;
    if (!capacity_infeasible(SolveKernel(inst), kTol)) continue;
    ++fired;
    EXPECT_FALSE(fits) << "trial " << trial << ": k=" << k << " n=" << n
                       << " kind=" << static_cast<int>(kind);
  }
  // The draw straddles the boundary, so the certificate is exercised,
  // and it misses some infeasible instances, which the DFS proves.
  EXPECT_GT(fired, 100u);
  EXPECT_GT(infeasible, fired);
}

TEST(CapacityScreenTest, WorkAboveCapacityIsInfeasibleAtZeroNodes) {
  // 64 tasks on 8 GSPs under consistent times, with 0.1 % more work
  // than d x total speed: every task fits on every GSP, and greedy finds
  // no mapping, so without the certificate the DFS spends its budget.
  util::Xoshiro256 rng(7);
  const std::size_t k = 8;
  const std::size_t n = 64;
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(k, n);
  inst.time = linalg::Matrix(k, n);
  std::vector<double> speed(k);
  double total_speed = 0.0;
  for (double& s : speed) {
    s = rng.uniform(0.5, 2.0);
    total_speed += s;
  }
  double work = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double w = rng.uniform(1.0, 10.0);
    work += w;
    for (std::size_t g = 0; g < k; ++g) {
      inst.time(g, t) = w / speed[g];
      inst.cost(g, t) = rng.uniform(1.0, 20.0);
    }
  }
  inst.deadline = work / total_speed / 1.001;
  inst.payment = 1e9;
  EXPECT_TRUE(capacity_infeasible(SolveKernel(inst), kTol));

  BnbOptions opts;
  opts.max_nodes = 2'000;
  const AssignmentSolution sol = BnbAssignmentSolver(opts).solve(inst);
  EXPECT_EQ(sol.stats.status, AssignStatus::Infeasible);
  EXPECT_EQ(sol.stats.nodes, 0u);
  EXPECT_TRUE(sol.assignment.empty());
}

TEST(CapacityScreenTest, ExactIntegralFillIsNotCertified) {
  // Deadline 2: GSP 0 takes the task of work 2 and GSP 1 the tasks of
  // work 1 and 3, so both loads equal d and the work fills d x 3.
  const AssignmentInstance full = two_speed_instance(2.0);
  EXPECT_FALSE(capacity_infeasible(SolveKernel(full), kTol));
  EXPECT_FALSE(capacity_infeasible(SolveKernel(full), 0.0));
  const AssignmentSolution sol = BnbAssignmentSolver().solve(full);
  ASSERT_EQ(sol.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(sol.assignment, (Assignment{1, 0, 1}));
  EXPECT_EQ(sol.cost, 5.0);

  // 5 % less deadline leaves 5 % too little capacity: proven at the root.
  const AssignmentInstance tight = two_speed_instance(1.9);
  EXPECT_TRUE(capacity_infeasible(SolveKernel(tight), kTol));
  const AssignmentSolution none = BnbAssignmentSolver().solve(tight);
  EXPECT_EQ(none.stats.status, AssignStatus::Infeasible);
  EXPECT_EQ(none.stats.nodes, 0u);
}

TEST(CapacityScreenTest, SeededSolveIsNeverCertified) {
  // A solve that holds an incumbent skips the certificate: it keeps the
  // search's status and node count, and only solves without one are
  // counted as certified.
  obs::Recorder& rec = obs::Recorder::instance();
  rec.disable();
  rec.clear();
  rec.enable();
  obs::Counter& certified = rec.metrics().counter("ip.bnb.capacity_certified");

  const AssignmentInstance full = two_speed_instance(2.0);
  WarmStart warm;
  warm.incumbent = {1, 0, 1};
  warm.incumbent_cost = 5.0;
  const AssignmentSolution hot = BnbAssignmentSolver().solve(full, warm);
  EXPECT_TRUE(hot.stats.warm_start_used);
  EXPECT_EQ(hot.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(hot.cost, 5.0);
  EXPECT_EQ(certified.value(), 0u);

  (void)BnbAssignmentSolver().solve(two_speed_instance(1.9));
  EXPECT_EQ(certified.value(), 1u);
  rec.disable();
  rec.clear();
}

TEST(CapacityScreenTest, NonFiniteDeadlineOrColumnNeverCertifies) {
  AssignmentInstance open = two_speed_instance(kInf);
  EXPECT_FALSE(capacity_infeasible(SolveKernel(open), kTol));
  EXPECT_EQ(BnbAssignmentSolver().solve(open).stats.status,
            AssignStatus::Optimal);

  // GSP 0 cannot run task 0, so its column sum is +inf. Every task fits
  // somewhere, but any two of them overload a GSP: only the DFS proves it.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 3, 1.0);
  inst.time = linalg::Matrix::from_rows({{kInf, 1, 1}, {1, 1, 1}});
  inst.deadline = 1.0;
  inst.payment = 100.0;
  EXPECT_FALSE(capacity_infeasible(SolveKernel(inst), kTol));
  EXPECT_FALSE(fits_exhaustively(inst));
  const AssignmentSolution sol = BnbAssignmentSolver().solve(inst);
  EXPECT_EQ(sol.stats.status, AssignStatus::Infeasible);
  EXPECT_GT(sol.stats.nodes, 0u);

  // A task that fits nowhere still proves it at the root, whatever the
  // column sums.
  inst.time = linalg::Matrix::from_rows({{kInf, 1, 1}, {kInf, 1, 1}});
  EXPECT_TRUE(capacity_infeasible(SolveKernel(inst), kTol));
}

}  // namespace
}  // namespace svo::ip
