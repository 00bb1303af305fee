#include "workload/instance_gen.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "ip/greedy.hpp"

namespace svo::workload {
namespace {

trace::ProgramSpec test_program(std::size_t n = 48,
                                double runtime = 9000.0) {
  trace::ProgramSpec p;
  p.num_tasks = n;
  p.mean_task_runtime = runtime;
  p.source_job = 7;
  return p;
}

TEST(GenerateSpeedsTest, WithinTableIRange) {
  util::Xoshiro256 rng(1);
  TableIParams params;
  const std::vector<double> s = generate_speeds(params, rng);
  EXPECT_EQ(s.size(), 16u);
  for (const double v : s) {
    EXPECT_GE(v, 4.91 * 16.0 - 1e-9);
    EXPECT_LE(v, 4.91 * 128.0 + 1e-9);
  }
}

TEST(GenerateWorkloadsTest, FractionOfJobPeak) {
  util::Xoshiro256 rng(2);
  TableIParams params;
  const auto program = test_program(100, 10'000.0);
  const std::vector<double> w = generate_workloads(program, params, rng);
  EXPECT_EQ(w.size(), 100u);
  const double max_gflop = 10'000.0 * 4.91;
  for (const double x : w) {
    EXPECT_GE(x, 0.5 * max_gflop - 1e-6);
    EXPECT_LE(x, 1.0 * max_gflop + 1e-6);
  }
}

TEST(ExecutionTimesTest, ConsistentMatrix) {
  // Braun consistency: if GSP a beats GSP b on one task it beats it on
  // all tasks — guaranteed because t = w / s.
  util::Xoshiro256 rng(3);
  TableIParams params;
  params.num_gsps = 6;
  const std::vector<double> s = generate_speeds(params, rng);
  const std::vector<double> w =
      generate_workloads(test_program(), params, rng);
  const linalg::Matrix t = execution_times(s, w);
  for (std::size_t a = 0; a < s.size(); ++a) {
    for (std::size_t b = 0; b < s.size(); ++b) {
      const bool faster_on_first = t(a, 0) < t(b, 0);
      for (std::size_t j = 1; j < w.size(); ++j) {
        if (t(a, j) != t(b, j)) {
          ASSERT_EQ(t(a, j) < t(b, j), faster_on_first);
        }
      }
    }
  }
}

TEST(ExecutionTimesTest, MatchesDefinition) {
  const linalg::Matrix t = execution_times({2.0, 4.0}, {8.0, 12.0});
  EXPECT_DOUBLE_EQ(t(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 3.0);
}

TEST(ExecutionTimesTest, RejectsBadInputs) {
  EXPECT_THROW((void)execution_times({}, {1.0}), InvalidArgument);
  EXPECT_THROW((void)execution_times({0.0}, {1.0}), InvalidArgument);
  EXPECT_THROW((void)execution_times({1.0}, {0.0}), InvalidArgument);
}

TEST(GenerateInstanceTest, ProducesFeasibleInstance) {
  util::Xoshiro256 rng(5);
  InstanceGenOptions opts;
  opts.params.num_gsps = 8;
  const GridInstance gi = generate_instance(test_program(64), opts, rng);
  gi.assignment.validate();
  EXPECT_EQ(gi.assignment.num_gsps(), 8u);
  EXPECT_EQ(gi.assignment.num_tasks(), 64u);
  // The generator's contract: a feasible assignment exists.
  const ip::GreedyAssignmentSolver probe;
  EXPECT_TRUE(probe.solve(gi.assignment).has_assignment());
}

TEST(GenerateInstanceTest, PaymentWithinTableIRange) {
  util::Xoshiro256 rng(6);
  InstanceGenOptions opts;
  opts.params.num_gsps = 8;
  const GridInstance gi = generate_instance(test_program(64), opts, rng);
  if (!gi.deadline_relaxed) {
    const double n = 64.0;
    EXPECT_GE(gi.assignment.payment, 0.2 * 1000.0 * n - 1e-6);
    EXPECT_LE(gi.assignment.payment, 0.4 * 1000.0 * n + 1e-6);
  }
}

TEST(GenerateInstanceTest, CostsAreWorkloadMonotone) {
  util::Xoshiro256 rng(7);
  InstanceGenOptions opts;
  opts.params.num_gsps = 4;
  const GridInstance gi = generate_instance(test_program(32), opts, rng);
  const auto& w = gi.workloads;
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t a = 0; a < w.size(); ++a) {
      for (std::size_t b = 0; b < w.size(); ++b) {
        if (w[a] > w[b]) {
          ASSERT_GE(gi.assignment.cost(g, a), gi.assignment.cost(g, b));
        }
      }
    }
  }
}

/// generate_instance must throw InvalidArgument naming `field`.
void expect_rejected(const InstanceGenOptions& opts, const char* field) {
  util::Xoshiro256 rng(5);
  try {
    (void)generate_instance(test_program(64), opts, rng);
    ADD_FAILURE() << field << ": bad value accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(GenerateInstanceTest, ZeroRedrawBudgetRejected) {
  // Deadlines far below the Table I range reject the first draw, after
  // which the relaxation schedule used to divide by the zero budget.
  InstanceGenOptions opts;
  opts.params.num_gsps = 8;
  opts.params.deadline_factor_lo = 0.003;
  opts.params.deadline_factor_hi = 0.004;
  opts.max_feasibility_redraws = 0;
  expect_rejected(opts, "max_feasibility_redraws");
}

TEST(GenerateInstanceTest, RelaxStepAtMostOneRejected) {
  // With relax_step <= 1 the ranges never widen, so an instance the
  // probe always rejects would loop forever. This instance is feasible
  // on its first draws, so the bad value used to pass unnoticed.
  for (const double step : {1.0, 0.5, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    InstanceGenOptions opts;
    opts.params.num_gsps = 8;
    opts.relax_step = step;
    expect_rejected(opts, "relax_step");
  }
}

TEST(GenerateInstanceTest, DeterministicInRng) {
  InstanceGenOptions opts;
  opts.params.num_gsps = 6;
  util::Xoshiro256 a(11);
  util::Xoshiro256 b(11);
  const GridInstance ga = generate_instance(test_program(), opts, a);
  const GridInstance gb = generate_instance(test_program(), opts, b);
  EXPECT_DOUBLE_EQ(ga.assignment.deadline, gb.assignment.deadline);
  EXPECT_DOUBLE_EQ(ga.assignment.payment, gb.assignment.payment);
  EXPECT_DOUBLE_EQ(ga.assignment.cost(3, 5), gb.assignment.cost(3, 5));
  EXPECT_DOUBLE_EQ(ga.speeds[2], gb.speeds[2]);
}

}  // namespace
}  // namespace svo::workload
