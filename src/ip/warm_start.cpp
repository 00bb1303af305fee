#include "ip/warm_start.hpp"

#include <algorithm>
#include <limits>

namespace svo::ip {

namespace {

/// Cheapest GSP that can still take task `t` under the deadline;
/// SIZE_MAX when none fits.
std::size_t cheapest_feasible(const AssignmentInstance& inst, std::size_t t,
                              const std::vector<double>& load) {
  std::size_t best_g = SIZE_MAX;
  double best_c = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    if (load[g] + inst.time(g, t) > inst.deadline) continue;
    const double c = inst.cost(g, t);
    if (c < best_c) {
      best_c = c;
      best_g = g;
    }
  }
  return best_g;
}

}  // namespace

RepairResult repair_for_removal(const AssignmentInstance& inst,
                                const std::vector<std::size_t>& rows,
                                const Assignment& parent_assignment,
                                std::size_t removed_parent_row,
                                std::size_t polish_passes) {
  RepairResult out;
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
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
    load[r] += inst.time(r, t);
    ++count[r];
    out.cost += inst.cost(r, t);
  }

  // Greedy reinsertion of the orphaned tasks (cheapest feasible GSP).
  for (const std::size_t t : moved) {
    const std::size_t g = cheapest_feasible(inst, t, load);
    if (g == SIZE_MAX) {
      out.cost = 0.0;
      return out;  // no surviving GSP can absorb this task
    }
    a[t] = g;
    load[g] += inst.time(g, t);
    ++count[g];
    out.cost += inst.cost(g, t);
    ++out.moves;
  }

  // Relocation polish restricted to the moved tasks: the surviving part
  // of the parent mapping was already solver-polished, so only the
  // fresh insertions can be locally suboptimal.
  for (std::size_t pass = 0; pass < polish_passes; ++pass) {
    bool improved = false;
    for (const std::size_t t : moved) {
      const std::size_t from = a[t];
      if (inst.require_all_gsps_used && count[from] <= 1) continue;
      const double c_from = inst.cost(from, t);
      std::size_t best_g = from;
      double best_c = c_from;
      for (std::size_t g = 0; g < k; ++g) {
        if (g == from) continue;
        const double c_g = inst.cost(g, t);
        if (c_g >= best_c) continue;
        if (load[g] + inst.time(g, t) > inst.deadline) continue;
        best_g = g;
        best_c = c_g;
      }
      if (best_g != from) {
        load[from] -= inst.time(from, t);
        --count[from];
        load[best_g] += inst.time(best_g, t);
        ++count[best_g];
        out.cost += best_c - c_from;
        a[t] = best_g;
        ++out.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }

  if (inst.require_all_gsps_used) {
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
  out.cost = assignment_cost(inst, out.assignment);
  return out;
}

}  // namespace svo::ip
