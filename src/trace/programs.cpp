#include "trace/programs.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace svo::trace {

ProgramSpec program_from_job(const SwfJob& job, double min_runtime_seconds) {
  detail::require(job.completed(), "program_from_job: job not completed");
  detail::require(job.run_time >= min_runtime_seconds,
                  "program_from_job: job below runtime threshold");
  detail::require(job.allocated_processors > 0,
                  "program_from_job: job has no allocated processors");
  // Fall back to wall-clock runtime when average CPU time is unknown (-1).
  const double cpu = job.avg_cpu_time > 0.0 ? job.avg_cpu_time : job.run_time;
  ProgramSpec p;
  p.num_tasks = static_cast<std::size_t>(job.allocated_processors);
  p.mean_task_runtime = cpu;
  p.source_job = job.job_number;
  return p;
}

bool is_eligible(const SwfJob& job, double min_runtime_seconds) noexcept {
  return job.completed() && job.run_time >= min_runtime_seconds;
}

std::vector<ProgramSpec> sample_programs(const std::vector<SwfJob>& jobs,
                                         std::size_t num_tasks,
                                         std::size_t count,
                                         util::Xoshiro256& rng,
                                         double min_runtime_seconds) {
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (is_eligible(jobs[i], min_runtime_seconds) &&
        jobs[i].allocated_processors == static_cast<std::int64_t>(num_tasks)) {
      pool.push_back(i);
    }
  }
  return sample_programs(jobs, pool, count, rng, min_runtime_seconds);
}

std::vector<ProgramSpec> sample_programs(const std::vector<SwfJob>& jobs,
                                         std::span<const std::size_t> pool,
                                         std::size_t count,
                                         util::Xoshiro256& rng,
                                         double min_runtime_seconds) {
  std::vector<ProgramSpec> out;
  if (pool.empty() || count == 0) return out;
  // Without replacement while the pool lasts, then with replacement.
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = (i < order.size()) ? pool[order[i]]
                                              : pool[rng.index(pool.size())];
    out.push_back(program_from_job(jobs.at(j), min_runtime_seconds));
  }
  return out;
}

std::size_t count_eligible(const std::vector<SwfJob>& jobs,
                           std::size_t num_tasks,
                           double min_runtime_seconds) {
  return static_cast<std::size_t>(std::count_if(
      jobs.begin(), jobs.end(), [&](const SwfJob& j) {
        return is_eligible(j, min_runtime_seconds) &&
               j.allocated_processors == static_cast<std::int64_t>(num_tasks);
      }));
}

}  // namespace svo::trace
