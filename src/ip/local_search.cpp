#include "ip/local_search.hpp"

#include <algorithm>
#include <string>

#include "ip/solve_kernel.hpp"
#include "util/rng.hpp"

namespace svo::ip {

namespace {

/// Mutable view of an assignment's per-GSP state.
struct State {
  std::vector<double> load;             // summed time per GSP
  std::vector<std::size_t> task_count;  // tasks per GSP
  double cost = 0.0;

  State(const SolveKernel& kernel, const Assignment& a)
      : load(kernel.num_gsps(), 0.0), task_count(kernel.num_gsps(), 0) {
    for (std::size_t t = 0; t < a.size(); ++t) {
      load[a[t]] += kernel.times(t)[a[t]];
      ++task_count[a[t]];
      cost += kernel.costs(t)[a[t]];
    }
  }
};

/// One relocation pass; returns true if any move improved the cost. Each
/// task moves to its cheapest GSP that is cheaper than its current one
/// and can still take it, the lowest index among equally cheap ones:
/// the first such GSP of its cost-ascending order.
bool move_pass(const SolveKernel& kernel, Assignment& a, State& st) {
  const std::size_t k = kernel.num_gsps();
  const double deadline = kernel.deadline();
  bool improved = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const std::size_t from = a[t];
    // Donor must keep at least one task when (13) is enforced.
    if (kernel.require_all_gsps_used() && st.task_count[from] <= 1) continue;
    const double* costs = kernel.costs(t);
    const double* times = kernel.times(t);
    const double c_from = costs[from];
    const std::uint32_t* order = kernel.cost_order(t);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t g = order[i];
      const double c_g = costs[g];
      if (c_g >= c_from) break;  // no cheaper GSP remains
      if (st.load[g] + times[g] > deadline) continue;
      st.load[from] -= times[from];
      --st.task_count[from];
      st.load[g] += times[g];
      ++st.task_count[g];
      st.cost += c_g - c_from;
      a[t] = g;
      improved = true;
      break;
    }
  }
  return improved;
}

/// Try swapping the GSPs of tasks t and u; applies and returns true when
/// the swap is cost-improving and feasible.
bool try_swap(const SolveKernel& kernel, Assignment& a, State& st,
              std::size_t t, std::size_t u) {
  const std::size_t gt = a[t];
  const std::size_t gu = a[u];
  if (gt == gu) return false;
  const double* cost_t = kernel.costs(t);
  const double* cost_u = kernel.costs(u);
  const double delta = cost_t[gu] + cost_u[gt] - cost_t[gt] - cost_u[gu];
  if (delta >= -1e-12) return false;
  const double* time_t = kernel.times(t);
  const double* time_u = kernel.times(u);
  const double new_load_gt = st.load[gt] - time_t[gt] + time_u[gt];
  const double new_load_gu = st.load[gu] - time_u[gu] + time_t[gu];
  if (new_load_gt > kernel.deadline() || new_load_gu > kernel.deadline()) {
    return false;
  }
  st.load[gt] = new_load_gt;
  st.load[gu] = new_load_gu;
  st.cost += delta;
  std::swap(a[t], a[u]);
  return true;
}

}  // namespace

double local_search(const AssignmentInstance& inst, Assignment& a,
                    const LocalSearchOptions& opts) {
  const SolveKernel kernel(inst);
  const std::string violation = check_feasible(inst, a);
  // Payment (10) is allowed to be violated on entry — local search only
  // reduces cost, the caller decides.
  detail::require(violation.empty() || violation.rfind("payment", 0) == 0,
                  "local_search: entry assignment violates (11)-(13)");
  return local_search(kernel, a, opts);
}

double local_search(const SolveKernel& kernel, Assignment& a,
                    const LocalSearchOptions& opts) {
  State st(kernel, a);
  for (std::size_t pass = 0; pass < opts.max_move_passes; ++pass) {
    if (!move_pass(kernel, a, st)) break;
  }
  if (opts.max_swap_passes > 0 && kernel.num_gsps() > 1 && a.size() > 1) {
    util::Xoshiro256 rng(opts.seed);
    for (std::size_t pass = 0; pass < opts.max_swap_passes; ++pass) {
      bool improved = false;
      if (opts.swap_sample_per_task == 0) {
        for (std::size_t t = 0; t + 1 < a.size(); ++t) {
          for (std::size_t u = t + 1; u < a.size(); ++u) {
            improved |= try_swap(kernel, a, st, t, u);
          }
        }
      } else {
        for (std::size_t t = 0; t < a.size(); ++t) {
          for (std::size_t s = 0; s < opts.swap_sample_per_task; ++s) {
            const std::size_t u = rng.index(a.size());
            if (u != t) improved |= try_swap(kernel, a, st, t, u);
          }
        }
      }
      // A swap pass may open relocation opportunities.
      if (improved) {
        while (move_pass(kernel, a, st)) {
        }
      } else {
        break;
      }
    }
  }
  return st.cost;
}

}  // namespace svo::ip
