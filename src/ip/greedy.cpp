#include "ip/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "ip/solve_kernel.hpp"

namespace svo::ip {

Assignment greedy_construct(const AssignmentInstance& inst,
                            GreedyOptions::Order order) {
  return greedy_construct(SolveKernel(inst), order);
}

Assignment greedy_construct(const SolveKernel& kernel,
                            GreedyOptions::Order order) {
  const std::size_t k = kernel.num_gsps();
  const std::size_t n = kernel.num_tasks();
  const double deadline = kernel.deadline();
  if (kernel.require_all_gsps_used() && k > n) return {};

  std::vector<std::size_t> by_time;
  if (order == GreedyOptions::Order::TimeDescending) {
    // Hardest (longest worst-case) tasks first, ties by index.
    std::vector<double> max_time(n, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double* times = kernel.times(t);
      for (std::size_t g = 0; g < k; ++g) {
        max_time[t] = std::max(max_time[t], times[g]);
      }
    }
    by_time.resize(n);
    std::iota(by_time.begin(), by_time.end(), std::size_t{0});
    std::stable_sort(by_time.begin(), by_time.end(),
                     [&](std::size_t a, std::size_t b) {
                       return max_time[a] > max_time[b];
                     });
  }
  const std::vector<std::size_t>& task_order =
      order == GreedyOptions::Order::TimeDescending ? by_time
                                                    : kernel.regret_order();

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  for (const std::size_t t : task_order) {
    const double* costs = kernel.costs(t);
    const double* times = kernel.times(t);
    std::size_t best_g = SIZE_MAX;
    double best_c = std::numeric_limits<double>::infinity();
    double best_slack = -1.0;
    for (std::size_t g = 0; g < k; ++g) {
      const double tm = times[g];
      if (load[g] + tm > deadline) continue;
      const double c = costs[g];
      const double slack = deadline - load[g] - tm;
      if (c < best_c - 1e-12 ||
          (c < best_c + 1e-12 && slack > best_slack)) {
        best_g = g;
        best_c = c;
        best_slack = slack;
      }
    }
    if (best_g == SIZE_MAX) return {};  // no GSP can still take this task
    a[t] = best_g;
    load[best_g] += times[best_g];
    ++count[best_g];
  }

  if (kernel.require_all_gsps_used()) {
    // Coverage repair: give every empty GSP its cheapest feasible task
    // taken from a donor that keeps at least one task.
    for (std::size_t g = 0; g < k; ++g) {
      if (count[g] > 0) continue;
      std::size_t best_t = SIZE_MAX;
      double best_delta = std::numeric_limits<double>::infinity();
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t from = a[t];
        if (count[from] <= 1) continue;
        const double tm = kernel.times(t)[g];
        if (load[g] + tm > deadline) continue;
        const double* costs = kernel.costs(t);
        const double delta = costs[g] - costs[from];
        if (delta < best_delta) {
          best_delta = delta;
          best_t = t;
        }
      }
      if (best_t == SIZE_MAX) return {};  // cannot cover GSP g
      const std::size_t from = a[best_t];
      const double* times = kernel.times(best_t);
      load[from] -= times[from];
      --count[from];
      a[best_t] = g;
      load[g] += times[g];
      ++count[g];
    }
  }
  return a;
}

AssignmentSolution GreedyAssignmentSolver::solve(
    const AssignmentInstance& inst) const {
  return solve(SolveKernel(inst));
}

AssignmentSolution GreedyAssignmentSolver::solve(
    const SolveKernel& kernel) const {
  AssignmentSolution sol;
  Assignment a =
      greedy_construct(kernel, GreedyOptions::Order::RegretDescending);
  if (a.empty()) {
    // Second chance with the other ordering: different orders fail on
    // different tight instances.
    a = greedy_construct(kernel, GreedyOptions::Order::TimeDescending);
  }
  if (a.empty()) {
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  double cost = 0.0;
  if (opts_.polish) {
    cost = local_search(kernel, a, opts_.local_search);
  } else {
    for (std::size_t t = 0; t < a.size(); ++t) cost += kernel.costs(t)[a[t]];
  }
  if (cost > kernel.payment() + 1e-9) {
    // Heuristic could not get under the payment cap; inconclusive.
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  sol.stats.status = AssignStatus::Feasible;
  sol.assignment = std::move(a);
  sol.cost = cost;
  return sol;
}

}  // namespace svo::ip
