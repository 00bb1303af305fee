#include "ip/warm_start.hpp"

#include <algorithm>
#include <limits>

namespace svo::ip {

RepairResult repair_for_removal(const SolveKernel& kernel,
                                const std::vector<std::size_t>& rows,
                                const Assignment& parent_assignment,
                                std::size_t removed_parent_row,
                                std::size_t polish_passes) {
  RepairResult out;
  const std::size_t k = kernel.num_gsps();
  const std::size_t n = kernel.num_tasks();
  const double deadline = kernel.deadline();
  if (rows.size() != k || parent_assignment.size() != n) return out;

  // Inverse row map: parent row -> child row.
  std::size_t max_parent = removed_parent_row;
  for (const std::size_t p : rows) max_parent = std::max(max_parent, p);
  std::vector<std::size_t> child_of(max_parent + 1, SIZE_MAX);
  for (std::size_t r = 0; r < k; ++r) child_of[rows[r]] = r;

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  std::vector<std::size_t> moved;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t p = parent_assignment[t];
    if (p == removed_parent_row) {
      moved.push_back(t);
      continue;
    }
    if (p > max_parent || child_of[p] == SIZE_MAX) return out;  // bad hint
    const std::size_t r = child_of[p];
    a[t] = r;
    load[r] += kernel.times(t)[r];
    ++count[r];
    out.cost += kernel.costs(t)[r];
  }

  // Greedy reinsertion of the orphaned tasks: the cheapest GSP that can
  // still take the task under the deadline, the lowest index on ties.
  for (const std::size_t t : moved) {
    const double* costs = kernel.costs(t);
    const double* times = kernel.times(t);
    std::size_t g = SIZE_MAX;
    double best_c = std::numeric_limits<double>::infinity();
    for (std::size_t h = 0; h < k; ++h) {
      if (load[h] + times[h] > deadline) continue;
      if (costs[h] < best_c) {
        best_c = costs[h];
        g = h;
      }
    }
    if (g == SIZE_MAX) {
      out.cost = 0.0;
      return out;  // no surviving GSP can absorb this task
    }
    a[t] = g;
    load[g] += times[g];
    ++count[g];
    out.cost += costs[g];
    ++out.moves;
  }

  // Relocation polish restricted to the moved tasks: the surviving part
  // of the parent mapping was already solver-polished, so only the
  // fresh insertions can be locally suboptimal.
  for (std::size_t pass = 0; pass < polish_passes; ++pass) {
    bool improved = false;
    for (const std::size_t t : moved) {
      const std::size_t from = a[t];
      if (kernel.require_all_gsps_used() && count[from] <= 1) continue;
      const double* costs = kernel.costs(t);
      const double* times = kernel.times(t);
      const double c_from = costs[from];
      std::size_t best_g = from;
      double best_c = c_from;
      for (std::size_t g = 0; g < k; ++g) {
        if (g == from) continue;
        const double c_g = costs[g];
        if (c_g >= best_c) continue;
        if (load[g] + times[g] > deadline) continue;
        best_g = g;
        best_c = c_g;
      }
      if (best_g != from) {
        load[from] -= times[from];
        --count[from];
        load[best_g] += times[best_g];
        ++count[best_g];
        out.cost += best_c - c_from;
        a[t] = best_g;
        ++out.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }

  if (kernel.require_all_gsps_used()) {
    for (std::size_t g = 0; g < k; ++g) {
      if (count[g] == 0) {
        // A surviving GSP lost coverage (possible only when the parent
        // mapping never used it, i.e. (13) was off upstream): bail out
        // rather than hand the solver an infeasible incumbent.
        out.cost = 0.0;
        out.moves = 0;
        return out;
      }
    }
  }
  out.ok = true;
  out.assignment = std::move(a);
  // Canonical cost: recompute in task order so warm incumbents carry
  // the exact double the solvers would report for this assignment.
  out.cost = assignment_cost(kernel, out.assignment);
  return out;
}

}  // namespace svo::ip
