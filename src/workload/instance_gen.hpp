/// \file instance_gen.hpp
/// Full Table I instance generation: from a trace-derived program spec to
/// the assignment instance (workloads, speeds, execution times, Braun
/// costs, deadline and payment) with the paper's feasibility guarantee
/// ("the values for deadline and payment were generated in such a way
/// that there exists a feasible solution").
#pragma once

#include <cstdint>
#include <vector>

#include "ip/assignment.hpp"
#include "trace/programs.hpp"
#include "workload/braun.hpp"
#include "workload/params.hpp"

namespace svo::workload {

/// A fully generated problem instance for one experiment run.
struct GridInstance {
  /// The assignment IP data consumed by the mechanisms.
  ip::AssignmentInstance assignment;
  /// w: GFLOP per task (n entries).
  std::vector<double> workloads;
  /// s: GFLOPS per GSP (m entries).
  std::vector<double> speeds;
  /// Program this instance realizes.
  trace::ProgramSpec program;
  /// Deadline/payment draw diagnostics.
  std::size_t feasibility_redraws = 0;
  /// True when the rejection loop had to relax the deadline beyond the
  /// Table I range to reach feasibility (rare; logged for honesty).
  bool deadline_relaxed = false;
};

/// Options for generate_instance().
struct InstanceGenOptions {
  TableIParams params;
  BraunOptions braun;
  /// Redraws of (deadline, payment) before the deadline range is relaxed.
  std::size_t max_feasibility_redraws = 60;
  /// Multiplier applied to the deadline per relaxation step (see above).
  double relax_step = 1.25;

  /// Throws InvalidArgument naming the field unless
  /// max_feasibility_redraws > 0 and relax_step is finite and > 1, the
  /// values with which the rejection loop widens the ranges step by step.
  void validate() const;
};

/// Generate speeds: gflops_per_processor * U_int[speed_lo, speed_hi]
/// processors per GSP.
[[nodiscard]] std::vector<double> generate_speeds(const TableIParams& params,
                                                  util::Xoshiro256& rng);

/// Generate task workloads (GFLOP) for a program: job runtime converted
/// to operations at the Atlas per-processor peak, scaled per task by
/// U[workload_fraction_lo, workload_fraction_hi].
[[nodiscard]] std::vector<double> generate_workloads(
    const trace::ProgramSpec& program, const TableIParams& params,
    util::Xoshiro256& rng);

/// Execution-time matrix t(g, t) = w(t) / s(g). The result is consistent
/// in the Braun sense: a GSP faster on one task is faster on all.
[[nodiscard]] linalg::Matrix execution_times(
    const std::vector<double>& speeds, const std::vector<double>& workloads);

/// Generate a complete instance for `program`. Deterministic in `rng`.
/// The (deadline, payment) pair is rejection-sampled within the Table I
/// ranges until a greedy probe finds a feasible assignment; if
/// max_feasibility_redraws is exhausted, the deadline range is relaxed
/// multiplicatively (flagged in the result) so callers always receive a
/// feasible instance, exactly as the paper promises. Throws
/// InvalidArgument when `opts` fails InstanceGenOptions::validate.
[[nodiscard]] GridInstance generate_instance(const trace::ProgramSpec& program,
                                             const InstanceGenOptions& opts,
                                             util::Xoshiro256& rng);

}  // namespace svo::workload
