#include "workload/instance_gen.hpp"

#include <cmath>
#include <optional>

#include "ip/greedy.hpp"
#include "ip/solve_kernel.hpp"

namespace svo::workload {

std::vector<double> generate_speeds(const TableIParams& params,
                                    util::Xoshiro256& rng) {
  detail::require(params.num_gsps > 0, "generate_speeds: num_gsps == 0");
  detail::require(params.speed_lo > 0 && params.speed_lo <= params.speed_hi,
                  "generate_speeds: bad processor-count range");
  std::vector<double> speeds(params.num_gsps);
  for (double& s : speeds) {
    const auto procs = rng.uniform_int(params.speed_lo, params.speed_hi);
    s = params.gflops_per_processor * static_cast<double>(procs);
  }
  return speeds;
}

std::vector<double> generate_workloads(const trace::ProgramSpec& program,
                                       const TableIParams& params,
                                       util::Xoshiro256& rng) {
  detail::require(program.num_tasks > 0, "generate_workloads: empty program");
  detail::require(program.mean_task_runtime > 0.0,
                  "generate_workloads: non-positive runtime");
  // Maximum operations a task can represent: the job's CPU seconds at the
  // per-processor peak. Each task draws a fraction of it (Section IV-A).
  const double max_gflop =
      program.mean_task_runtime * params.gflops_per_processor;
  std::vector<double> w(program.num_tasks);
  for (double& x : w) {
    x = max_gflop *
        rng.uniform(params.workload_fraction_lo, params.workload_fraction_hi);
  }
  return w;
}

linalg::Matrix execution_times(const std::vector<double>& speeds,
                               const std::vector<double>& workloads) {
  detail::require(!speeds.empty() && !workloads.empty(),
                  "execution_times: empty inputs");
  linalg::Matrix t(speeds.size(), workloads.size());
  for (std::size_t g = 0; g < speeds.size(); ++g) {
    detail::require(speeds[g] > 0.0, "execution_times: non-positive speed");
    const double inv = 1.0 / speeds[g];
    for (std::size_t j = 0; j < workloads.size(); ++j) {
      detail::require(workloads[j] > 0.0,
                      "execution_times: non-positive workload");
      t(g, j) = workloads[j] * inv;
    }
  }
  return t;
}

void InstanceGenOptions::validate() const {
  detail::require(max_feasibility_redraws > 0,
                  "InstanceGenOptions: max_feasibility_redraws must be > 0");
  detail::require(std::isfinite(relax_step) && relax_step > 1.0,
                  "InstanceGenOptions: relax_step must be finite and > 1");
}

namespace {

/// Fast feasibility probe: can *some* assignment satisfy (11)-(13) within
/// payment (10)? Uses greedy construction (both orderings) + a short
/// local search; sound "yes", heuristic "no".
bool probe_feasible(const ip::SolveKernel& kernel) {
  ip::GreedyOptions opts;
  opts.local_search.max_move_passes = 6;
  opts.local_search.max_swap_passes = 1;
  opts.local_search.swap_sample_per_task = 4;
  const ip::GreedyAssignmentSolver solver(opts);
  return solver.solve(kernel).has_assignment();
}

}  // namespace

GridInstance generate_instance(const trace::ProgramSpec& program,
                               const InstanceGenOptions& opts,
                               util::Xoshiro256& rng) {
  opts.validate();
  const TableIParams& p = opts.params;
  GridInstance gi;
  gi.program = program;
  gi.speeds = generate_speeds(p, rng);
  gi.workloads = generate_workloads(program, p, rng);

  gi.assignment.time = execution_times(gi.speeds, gi.workloads);
  gi.assignment.cost =
      generate_braun_costs(p.num_gsps, gi.workloads, opts.braun, rng);
  gi.assignment.require_all_gsps_used = true;

  const double n = static_cast<double>(program.num_tasks);
  const double runtime = program.mean_task_runtime;
  double relax = 1.0;
  // The probe's kernel is built on the first draw and retargeted on each
  // redraw: only the deadline and the payment change between draws.
  std::optional<ip::SolveKernel> kernel;
  for (;;) {
    const double deadline_factor =
        rng.uniform(p.deadline_factor_lo, p.deadline_factor_hi);
    const double payment_factor =
        rng.uniform(p.payment_factor_lo, p.payment_factor_hi);
    // `relax` stays 1.0 within the Table I ranges; it grows (and is
    // flagged) only if the ranges themselves cannot yield feasibility.
    gi.assignment.deadline = relax * deadline_factor * runtime * n / 1000.0;
    gi.assignment.payment = relax * payment_factor * p.max_cost() * n;
    if (kernel) {
      kernel->retarget(gi.assignment.deadline, gi.assignment.payment);
    } else {
      kernel.emplace(gi.assignment);
    }
    if (probe_feasible(*kernel)) break;
    ++gi.feasibility_redraws;
    if (gi.feasibility_redraws % opts.max_feasibility_redraws == 0) {
      relax *= opts.relax_step;
      gi.deadline_relaxed = true;
    }
  }
  return gi;
}

}  // namespace svo::workload
