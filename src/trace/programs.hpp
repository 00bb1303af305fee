/// \file programs.hpp
/// Extraction of "application programs" from a trace, per Section IV-A:
/// a completed job with run_time >= 7200 s becomes a program whose number
/// of tasks is the job's allocated-processor count and whose per-task
/// mean runtime is the job's average CPU time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/swf.hpp"
#include "util/rng.hpp"

namespace svo::trace {

/// One application program T = {T_1..T_n} derived from a trace job.
struct ProgramSpec {
  /// n: number of independent tasks (= allocated processors of the job).
  std::size_t num_tasks = 0;
  /// Mean per-task runtime in seconds (= average CPU time of the job).
  double mean_task_runtime = 0.0;
  /// Originating SWF job number (for provenance).
  std::int64_t source_job = -1;
};

/// Turn one eligible job into a ProgramSpec. Throws InvalidArgument if the
/// job is not completed, too short, or has non-positive size/CPU time.
[[nodiscard]] ProgramSpec program_from_job(const SwfJob& job,
                                           double min_runtime_seconds = 7200.0);

/// True when `job` can become a program of its size (its allocated
/// processors): it completed and ran at least `min_runtime_seconds`.
[[nodiscard]] bool is_eligible(const SwfJob& job,
                               double min_runtime_seconds = 7200.0) noexcept;

/// Sample `count` programs with exactly `num_tasks` tasks from the
/// eligible jobs of `jobs` (uniformly, without replacement while
/// possible). Returns fewer than `count` when the trace lacks material.
/// Collects the pool in trace order and runs the overload below.
[[nodiscard]] std::vector<ProgramSpec> sample_programs(
    const std::vector<SwfJob>& jobs, std::size_t num_tasks, std::size_t count,
    util::Xoshiro256& rng, double min_runtime_seconds = 7200.0);

/// sample_programs over a pool collected beforehand: `pool` holds the
/// indices into `jobs` of the eligible jobs of one size, in trace order.
/// Draws exactly what the scanning overload draws for that size.
[[nodiscard]] std::vector<ProgramSpec> sample_programs(
    const std::vector<SwfJob>& jobs, std::span<const std::size_t> pool,
    std::size_t count, util::Xoshiro256& rng,
    double min_runtime_seconds = 7200.0);

/// Eligible job count at the given size (diagnostics / tests).
[[nodiscard]] std::size_t count_eligible(const std::vector<SwfJob>& jobs,
                                         std::size_t num_tasks,
                                         double min_runtime_seconds = 7200.0);

}  // namespace svo::trace
