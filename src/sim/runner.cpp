#include "sim/runner.hpp"

#include <mutex>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace svo::sim {

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg)
    : factory_(std::move(cfg)) {}

ExperimentRunner::PairResult ExperimentRunner::run_pair(
    const Scenario& scenario) const {
  const ExperimentConfig& cfg = config();
  const ip::BnbAssignmentSolver solver(cfg.solver);
  const core::TvofMechanism tvof(solver, cfg.mechanism);
  const core::RvofMechanism rvof(solver, cfg.mechanism);

  PairResult pr;
  util::Xoshiro256 tvof_rng(scenario.tvof_seed);
  pr.tvof = tvof.run(core::FormationRequest{scenario.instance.assignment, scenario.trust, tvof_rng});
  if (cfg.run_rvof) {
    util::Xoshiro256 rvof_rng(scenario.rvof_seed);
    pr.rvof = rvof.run(core::FormationRequest{scenario.instance.assignment, scenario.trust, rvof_rng});
  }
  return pr;
}

SweepResult ExperimentRunner::run_sweep(const RunObserver& observer) const {
  const ExperimentConfig& cfg = config();
  obs::Span sweep_span("sim.sweep", "sim");
  if (sweep_span.active()) {
    sweep_span.arg("sizes", static_cast<double>(cfg.task_sizes.size()));
    sweep_span.arg("repetitions", static_cast<double>(cfg.repetitions));
    sweep_span.arg("parallel", cfg.parallel ? 1.0 : 0.0);
  }
  SweepResult result;
  result.points.resize(cfg.task_sizes.size());

  for (std::size_t si = 0; si < cfg.task_sizes.size(); ++si) {
    const std::size_t n = cfg.task_sizes[si];
    SweepPoint& point = result.points[si];
    point.num_tasks = n;

    // One sweep cell = one (task size, all repetitions) block. The cell
    // span brackets the parallel repetition fan-out; each repetition's
    // mechanism runs carry their own core.mechanism.run spans (tagged
    // with the worker thread's recorder tid).
    obs::Span cell_span("sim.sweep.cell", "sim");
    if (cell_span.active()) {
      cell_span.arg("tasks", static_cast<double>(n));
      cell_span.arg("repetitions", static_cast<double>(cfg.repetitions));
      obs::Recorder::instance().metrics().counter("sim.sweep.cells").add();
    }

    // Repetitions are independent: run them concurrently, then merge in
    // repetition order so parallel and serial sweeps emit identical stats.
    std::vector<PairResult> reps(cfg.repetitions);
    const auto run_one = [&](std::size_t r) {
      const Scenario scenario = factory_.make(n, r);
      reps[r] = run_pair(scenario);
    };
    if (cfg.parallel && util::ThreadPool::global().size() > 1) {
      util::parallel_for(util::ThreadPool::global(), 0, cfg.repetitions,
                         run_one, /*grain=*/1);
    } else {
      for (std::size_t r = 0; r < cfg.repetitions; ++r) run_one(r);
    }

    const auto accumulate = [](MechanismStats& stats,
                               const core::MechanismResult& res) {
      stats.exec_seconds.add(res.elapsed_seconds);
      if (!res.success) {
        ++stats.failures;
        return;
      }
      stats.payoff.add(res.payoff_share);
      stats.vo_size.add(static_cast<double>(res.selected.size()));
      stats.avg_reputation.add(res.avg_global_reputation);
    };
    for (std::size_t r = 0; r < cfg.repetitions; ++r) {
      accumulate(point.tvof, reps[r].tvof);
      if (observer) observer(n, r, "TVOF", reps[r].tvof);
      if (cfg.run_rvof) {
        accumulate(point.rvof, reps[r].rvof);
        if (observer) observer(n, r, "RVOF", reps[r].rvof);
      }
    }
  }
  return result;
}

}  // namespace svo::sim
