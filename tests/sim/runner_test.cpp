#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/protocol.hpp"

namespace svo::sim {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.trace.num_jobs = 3000;
  cfg.trace.min_jobs_per_canonical_size = 4;
  cfg.trace.canonical_sizes = {24, 48};
  cfg.task_sizes = {24, 48};
  cfg.repetitions = 3;
  cfg.gen.params.num_gsps = 5;
  cfg.solver.max_nodes = 2000;
  return cfg;
}

TEST(ExperimentRunnerTest, SweepCoversAllSizesAndReps) {
  const ExperimentRunner runner(tiny_config());
  const SweepResult r = runner.run_sweep();
  ASSERT_EQ(r.points.size(), 2u);
  for (const auto& p : r.points) {
    EXPECT_EQ(p.tvof.exec_seconds.count(), 3u);
    EXPECT_EQ(p.rvof.exec_seconds.count(), 3u);
    EXPECT_EQ(p.tvof.payoff.count() + p.tvof.failures, 3u);
    EXPECT_EQ(p.rvof.payoff.count() + p.rvof.failures, 3u);
  }
  EXPECT_EQ(r.points[0].num_tasks, 24u);
  EXPECT_EQ(r.points[1].num_tasks, 48u);
}

TEST(ExperimentRunnerTest, VoSizesWithinBounds) {
  const ExperimentRunner runner(tiny_config());
  const SweepResult r = runner.run_sweep();
  for (const auto& p : r.points) {
    if (p.tvof.vo_size.count() > 0) {
      EXPECT_GE(p.tvof.vo_size.min(), 1.0);
      EXPECT_LE(p.tvof.vo_size.max(), 5.0);
    }
  }
}

TEST(ExperimentRunnerTest, ObserverSeesEveryRun) {
  const ExperimentRunner runner(tiny_config());
  std::size_t tvof_runs = 0;
  std::size_t rvof_runs = 0;
  (void)runner.run_sweep([&](std::size_t, std::size_t,
                             const std::string& mech,
                             const core::MechanismResult&) {
    (mech == "TVOF" ? tvof_runs : rvof_runs) += 1;
  });
  EXPECT_EQ(tvof_runs, 6u);
  EXPECT_EQ(rvof_runs, 6u);
}

TEST(ExperimentRunnerTest, RvofCanBeDisabled) {
  ExperimentConfig cfg = tiny_config();
  cfg.run_rvof = false;
  cfg.task_sizes = {24};
  const ExperimentRunner runner(cfg);
  const SweepResult r = runner.run_sweep();
  EXPECT_EQ(r.points[0].rvof.exec_seconds.count(), 0u);
  EXPECT_EQ(r.points[0].tvof.exec_seconds.count(), 3u);
}

TEST(ExperimentRunnerTest, DeterministicAcrossRuns) {
  const ExperimentRunner a(tiny_config());
  const ExperimentRunner b(tiny_config());
  const SweepResult ra = a.run_sweep();
  const SweepResult rb = b.run_sweep();
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.points[i].tvof.payoff.mean(),
                     rb.points[i].tvof.payoff.mean());
    EXPECT_DOUBLE_EQ(ra.points[i].rvof.avg_reputation.mean(),
                     rb.points[i].rvof.avg_reputation.mean());
    EXPECT_DOUBLE_EQ(ra.points[i].tvof.vo_size.mean(),
                     rb.points[i].tvof.vo_size.mean());
  }
}

TEST(ExperimentRunnerTest, FailuresAreCountedNotAveraged) {
  // Starve the mechanism's solver (zero nodes, no greedy seed): every
  // coalition evaluates as infeasible, every run fails, the failure
  // counter absorbs them, and the payoff stats stay empty.
  ExperimentConfig cfg = tiny_config();
  cfg.task_sizes = {24};
  cfg.solver.max_nodes = 0;
  cfg.solver.seed_with_greedy = false;
  const ExperimentRunner runner(cfg);
  const SweepResult r = runner.run_sweep();
  const auto& p = r.points[0];
  EXPECT_EQ(p.tvof.failures, 3u);
  EXPECT_EQ(p.tvof.payoff.count(), 0u);
  EXPECT_EQ(p.tvof.exec_seconds.count(), 3u);  // time recorded regardless
}

TEST(ExperimentRunnerTest, RunPairUsesIndependentStreams) {
  const ExperimentRunner runner(tiny_config());
  const Scenario s = runner.scenarios().make(24, 0);
  const auto pr1 = runner.run_pair(s);
  const auto pr2 = runner.run_pair(s);
  EXPECT_EQ(pr1.tvof.selected, pr2.tvof.selected);  // deterministic
  EXPECT_EQ(pr1.rvof.selected, pr2.rvof.selected);
}

TEST(ExperimentRunnerTest, RunPairDistributedMatchesLocalDecisions) {
  // The fault-free trusted-party protocol is pure measurement: the
  // decisions must equal run_pair()'s, with all recovery counters zero.
  const ExperimentRunner runner(tiny_config());
  const Scenario s = runner.scenarios().make(24, 0);
  const auto local = runner.run_pair(s);
  const ip::BnbAssignmentSolver solver(runner.config().solver);
  const core::TvofMechanism tvof(solver, runner.config().mechanism);
  const core::RvofMechanism rvof(solver, runner.config().mechanism);
  util::Xoshiro256 tvof_rng(s.tvof_seed);
  util::Xoshiro256 rvof_rng(s.rvof_seed);
  const DistributedRunResult dist_tvof = run_distributed(
      tvof, s.instance.assignment, s.trust, tvof_rng);
  const DistributedRunResult dist_rvof = run_distributed(
      rvof, s.instance.assignment, s.trust, rvof_rng);
  EXPECT_EQ(dist_tvof.mechanism.selected, local.tvof.selected);
  EXPECT_EQ(dist_tvof.mechanism.mapping, local.tvof.mapping);
  EXPECT_EQ(dist_rvof.mechanism.selected, local.rvof.selected);
  EXPECT_EQ(dist_rvof.mechanism.mapping, local.rvof.mapping);
  for (const auto* p : {&dist_tvof.protocol, &dist_rvof.protocol}) {
    EXPECT_GT(p->messages, 0u);
    EXPECT_EQ(p->retries, 0u);
    EXPECT_EQ(p->timeouts_fired, 0u);
    EXPECT_EQ(p->drops_observed, 0u);
    EXPECT_EQ(p->repair_rounds, 0u);
    EXPECT_FALSE(p->degraded_quorum);
    EXPECT_FALSE(p->formation_failed);
  }
}

}  // namespace
}  // namespace svo::sim
