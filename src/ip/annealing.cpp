#include "ip/annealing.hpp"

#include <cmath>

#include "ip/greedy.hpp"
#include "ip/solve_kernel.hpp"
#include "util/rng.hpp"

namespace svo::ip {

double simulated_annealing(const AssignmentInstance& inst, Assignment& a,
                           const AnnealingOptions& opts) {
  detail::require(opts.iterations > 0, "simulated_annealing: no iterations");
  detail::require(opts.initial_temperature_fraction > 0.0 &&
                      opts.final_temperature_fraction > 0.0 &&
                      opts.final_temperature_fraction <=
                          opts.initial_temperature_fraction,
                  "simulated_annealing: bad temperature schedule");
  detail::require(opts.swap_probability >= 0.0 && opts.swap_probability <= 1.0,
                  "simulated_annealing: bad swap probability");
  {
    AssignmentInstance unbounded = inst;
    unbounded.payment = std::numeric_limits<double>::infinity();
    detail::require(check_feasible(unbounded, a).empty(),
                    "simulated_annealing: entry violates (11)-(13)");
  }
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
  if (k < 2 || n < 2) return assignment_cost(inst, a);

  util::Xoshiro256 rng(opts.seed);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  double cost = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    load[a[t]] += inst.time(a[t], t);
    ++count[a[t]];
    cost += inst.cost(a[t], t);
  }
  Assignment best = a;
  double best_cost = cost;

  const double t0 = opts.initial_temperature_fraction * cost;
  const double t1 = opts.final_temperature_fraction * cost;
  const double decay =
      std::pow(t1 / t0, 1.0 / static_cast<double>(opts.iterations));
  double temperature = t0;

  const auto accept = [&](double delta) {
    if (delta <= 0.0) return true;
    if (temperature <= 0.0) return false;
    return rng.uniform() < std::exp(-delta / temperature);
  };

  for (std::size_t it = 0; it < opts.iterations; ++it) {
    temperature *= decay;
    if (rng.bernoulli(opts.swap_probability)) {
      // Swap the executors of two tasks.
      const std::size_t t = rng.index(n);
      const std::size_t u = rng.index(n);
      const std::size_t gt = a[t];
      const std::size_t gu = a[u];
      if (t == u || gt == gu) continue;
      const double new_load_gt = load[gt] - inst.time(gt, t) + inst.time(gt, u);
      const double new_load_gu = load[gu] - inst.time(gu, u) + inst.time(gu, t);
      if (new_load_gt > inst.deadline || new_load_gu > inst.deadline) continue;
      const double delta = inst.cost(gu, t) + inst.cost(gt, u) -
                           inst.cost(gt, t) - inst.cost(gu, u);
      if (!accept(delta)) continue;
      load[gt] = new_load_gt;
      load[gu] = new_load_gu;
      std::swap(a[t], a[u]);
      cost += delta;
    } else {
      // Relocate a task to a random other GSP.
      const std::size_t t = rng.index(n);
      const std::size_t from = a[t];
      const std::size_t to = rng.index(k);
      if (to == from) continue;
      if (inst.require_all_gsps_used && count[from] <= 1) continue;
      if (load[to] + inst.time(to, t) > inst.deadline) continue;
      const double delta = inst.cost(to, t) - inst.cost(from, t);
      if (!accept(delta)) continue;
      load[from] -= inst.time(from, t);
      --count[from];
      load[to] += inst.time(to, t);
      ++count[to];
      a[t] = to;
      cost += delta;
    }
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      best = a;
    }
  }
  a = std::move(best);
  return best_cost;
}

AssignmentSolution AnnealingAssignmentSolver::solve(
    const AssignmentInstance& inst) const {
  AssignmentSolution sol;
  const SolveKernel kernel(inst);
  Assignment a = greedy_construct(kernel, GreedyOptions::Order::RegretDescending);
  if (a.empty()) {
    a = greedy_construct(kernel, GreedyOptions::Order::TimeDescending);
  }
  if (a.empty()) {
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  (void)simulated_annealing(inst, a, opts_);
  // Annealing only visits states satisfying (11)-(13).
  const double cost = local_search(kernel, a, {});
  if (cost > inst.payment + 1e-9) {
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  sol.stats.status = AssignStatus::Feasible;
  sol.assignment = std::move(a);
  sol.cost = cost;
  return sol;
}

}  // namespace svo::ip
