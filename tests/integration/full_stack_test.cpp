/// Cross-module integration tests: the complete pipeline (synthetic
/// trace -> SWF round trip -> program extraction -> Table I instance ->
/// mechanism -> game-theoretic postconditions), exercised with multiple
/// solvers and mechanisms — the flows a downstream user actually runs.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/merge_split.hpp"
#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "game/payoff.hpp"
#include "ip/bnb.hpp"
#include "ip/dag.hpp"
#include "ip/greedy.hpp"
#include "sim/runner.hpp"
#include "trace/atlas_synth.hpp"
#include "trace/programs.hpp"

namespace svo {
namespace {

sim::ExperimentConfig tiny_config() {
  sim::ExperimentConfig cfg;
  cfg.trace.num_jobs = 2500;
  cfg.trace.canonical_sizes = {40};
  cfg.trace.min_jobs_per_canonical_size = 6;
  cfg.task_sizes = {40};
  cfg.repetitions = 2;
  cfg.gen.params.num_gsps = 6;
  cfg.solver.max_nodes = 2000;
  return cfg;
}

TEST(FullStackTest, SwfRoundTripFeedsScenarioFactory) {
  // Trace -> file -> parse -> programs: the persisted form must be as
  // usable as the in-memory one.
  const trace::Trace generated =
      trace::generate_atlas_like(tiny_config().trace, 5);
  const std::string path = ::testing::TempDir() + "svo_roundtrip.swf";
  trace::write_swf_file(path, generated);
  const trace::Trace loaded = trace::parse_swf_file(path);
  EXPECT_EQ(loaded.malformed_lines, 0u);
  ASSERT_EQ(loaded.jobs.size(), generated.jobs.size());
  util::Xoshiro256 rng(1);
  const auto programs = trace::sample_programs(loaded.jobs, 40, 2, rng);
  ASSERT_EQ(programs.size(), 2u);
  EXPECT_EQ(programs[0].num_tasks, 40u);
  std::remove(path.c_str());
}

TEST(FullStackTest, MechanismInvariantsHoldWithHeuristicSolver) {
  // The mechanisms must keep every contract when driven by the greedy
  // (non-exact) solver instead of B&B.
  const sim::ExperimentConfig cfg = tiny_config();
  const sim::ScenarioFactory factory(cfg);
  const ip::GreedyAssignmentSolver greedy;
  const core::TvofMechanism tvof(greedy);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const sim::Scenario s = factory.make(40, rep);
    util::Xoshiro256 rng(s.tvof_seed);
    const core::MechanismResult r =
        tvof.run(core::FormationRequest{s.instance.assignment, s.trust, rng});
    if (!r.success) continue;
    // Selected VO's payoff dominates all feasible journal entries.
    for (const auto& it : r.journal) {
      if (it.feasible) {
        EXPECT_GE(r.payoff_share, it.payoff_share - 1e-9);
      }
    }
    // Equal shares sum to v(C).
    EXPECT_NEAR(r.payoff_share * static_cast<double>(r.selected.size()),
                r.value, 1e-6);
  }
}

TEST(FullStackTest, ThreeMechanismsShareOneScenario) {
  const sim::ExperimentConfig cfg = tiny_config();
  const sim::ScenarioFactory factory(cfg);
  const sim::Scenario s = factory.make(40, 0);
  const ip::BnbAssignmentSolver solver(cfg.solver);

  const core::TvofMechanism tvof(solver);
  const core::RvofMechanism rvof(solver);
  const core::MergeSplitMechanism msvof(solver);
  util::Xoshiro256 rng_t(1);
  util::Xoshiro256 rng_r(2);
  const core::MechanismResult rt =
      tvof.run(core::FormationRequest{s.instance.assignment, s.trust, rng_t});
  const core::MechanismResult rr =
      rvof.run(core::FormationRequest{s.instance.assignment, s.trust, rng_r});
  const core::MergeSplitResult rm =
      msvof.run(s.instance.assignment, s.trust);
  // All three agree the instance is workable (generator guarantees it).
  EXPECT_TRUE(rt.success);
  EXPECT_TRUE(rr.success);
  EXPECT_TRUE(rm.success);
  // All report value consistent with eq. (15) on the same payment.
  EXPECT_NEAR(rt.value, s.instance.assignment.payment - rt.cost, 1e-9);
  EXPECT_NEAR(rr.value, s.instance.assignment.payment - rr.cost, 1e-9);
  EXPECT_NEAR(rm.value, s.instance.assignment.payment - rm.cost, 1e-9);
}

TEST(FullStackTest, DagAdapterInsideSweepRunnerScenario) {
  // Build a scenario through the factory, then run TVOF with the DAG
  // adapter on a chained version of its program.
  const sim::ExperimentConfig cfg = tiny_config();
  const sim::ScenarioFactory factory(cfg);
  sim::Scenario s = factory.make(40, 1);
  ip::TaskDag dag(40);
  for (std::size_t t = 8; t < 40; ++t) dag.add_dependency(t - 8, t);
  s.instance.assignment.deadline *= 8.0;  // chains serialize
  const ip::DagSolverAdapter solver(dag);
  const core::TvofMechanism tvof(solver);
  util::Xoshiro256 rng(3);
  const core::MechanismResult r =
      tvof.run(core::FormationRequest{s.instance.assignment, s.trust, rng});
  if (!r.success) GTEST_SKIP() << "chained program infeasible here";
  // Rebuild the schedule on the selected VO and verify the deadline.
  std::vector<std::size_t> original;
  const ip::AssignmentInstance sub = s.instance.assignment.restrict_to(
      r.selected.mask(6), &original);
  const ip::DagSchedule schedule = solver.schedule(sub);
  EXPECT_LE(schedule.makespan, sub.deadline + 1e-9);
}

TEST(FullStackTest, SweepRunnerProducesConsistentJournalMetrics) {
  const sim::ExperimentConfig cfg = tiny_config();
  const sim::ExperimentRunner runner(cfg);
  std::size_t checked = 0;
  (void)runner.run_sweep([&](std::size_t, std::size_t, const std::string&,
                             const core::MechanismResult& r) {
    for (const auto& it : r.journal) {
      if (!it.feasible) continue;
      // Journal bookkeeping: share * |C| == v == P - cost.
      EXPECT_NEAR(it.payoff_share * static_cast<double>(it.coalition.size()),
                  it.value, 1e-6);
      ++checked;
    }
  });
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace svo
