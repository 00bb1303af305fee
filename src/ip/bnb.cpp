#include "ip/bnb.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "ip/greedy.hpp"
#include "ip/solve_kernel.hpp"
#include "ip/warm_start.hpp"
#include "obs/trace.hpp"

namespace svo::ip {

namespace {

constexpr double kEps = 1e-9;

/// All search state for one solve; DFS is recursive (frame is O(1),
/// depth = number of tasks). Reads every instance datum from the
/// solve's kernel: the branching order is its regret order, a task's
/// children are its cost order, and their costs and times come from the
/// task's contiguous rows.
class Search {
 public:
  Search(const SolveKernel& kernel, const BnbOptions& opts)
      : kernel_(kernel),
        opts_(opts),
        k_(kernel.num_gsps()),
        n_(kernel.num_tasks()),
        deadline_(kernel.deadline()),
        payment_(kernel.payment()),
        require_all_(kernel.require_all_gsps_used()),
        order_(kernel.regret_order()) {
    // Suffix of capacity-blind minimum costs in branching order.
    suffix_min_.assign(n_ + 1, 0.0);
    for (std::size_t i = n_; i-- > 0;) {
      suffix_min_[i] = suffix_min_[i + 1] + kernel_.min_cost(order_[i]);
    }
    load_.assign(k_, 0.0);
    count_.assign(k_, 0);
    empties_ = require_all_ ? k_ : 0;
    current_.assign(n_, 0);
  }

  void seed_incumbent(Assignment a, double cost) {
    if (cost <= payment_ + kEps &&
        (!has_incumbent_ || cost < incumbent_cost_ - kEps)) {
      incumbent_ = std::move(a);
      incumbent_cost_ = cost;
      has_incumbent_ = true;
      ++incumbent_updates_;
    }
  }

  /// Run the DFS; returns true if the space was fully exhausted.
  bool run() {
    // Quick proven-infeasible screens.
    if (require_all_ && k_ > n_) return true;
    for (std::size_t t = 0; t < n_; ++t) {
      const double* times = kernel_.times(t);
      if (std::none_of(times, times + k_,
                       [&](double tm) { return tm <= deadline_; })) {
        return true;  // some task fits nowhere: exhausted, no leaf
      }
    }
    dfs(0, 0.0);
    return !truncated_;
  }

  [[nodiscard]] bool has_incumbent() const noexcept { return has_incumbent_; }
  [[nodiscard]] const Assignment& incumbent() const noexcept { return incumbent_; }
  [[nodiscard]] double incumbent_cost() const noexcept { return incumbent_cost_; }
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }
  /// Incumbent improvements (seed acceptances + leaf updates) — the obs
  /// layer reports these per solve; counting here never alters search.
  [[nodiscard]] std::size_t incumbent_updates() const noexcept {
    return incumbent_updates_;
  }
  [[nodiscard]] double root_bound() const noexcept { return suffix_min_[0]; }

 private:
  void dfs(std::size_t depth, double cost_so_far) {
    if (truncated_) return;
    if (depth == n_) {
      // All constraints hold by construction of the branching.
      if (!has_incumbent_ || cost_so_far < incumbent_cost_ - kEps) {
        incumbent_ = current_;
        incumbent_cost_ = cost_so_far;
        has_incumbent_ = true;
        ++incumbent_updates_;
      }
      return;
    }
    const std::size_t t = order_[depth];
    const std::size_t remaining_after = n_ - depth - 1;
    const double suffix = suffix_min_[depth + 1];
    const std::uint32_t* children = kernel_.cost_order(t);
    const double* costs = kernel_.costs(t);
    const double* times = kernel_.times(t);
    for (std::size_t ci = 0; ci < k_; ++ci) {
      const std::size_t g = children[ci];
      const double c = costs[g];
      const double bound = cost_so_far + c + suffix;
      // Children are cost-sorted: once the bound fails, all later fail.
      if (bound > payment_ + kEps) break;
      if (has_incumbent_ && bound >= incumbent_cost_ - kEps) break;
      const double tm = times[g];
      if (load_[g] + tm > deadline_ + kEps) continue;
      const bool was_empty = require_all_ && count_[g] == 0;
      const std::size_t empties_after = empties_ - (was_empty ? 1 : 0);
      if (remaining_after < empties_after) continue;  // (13) unreachable

      ++nodes_;
      if (nodes_ >= opts_.max_nodes) {
        truncated_ = true;
        return;
      }
      load_[g] += tm;
      ++count_[g];
      if (was_empty) --empties_;
      current_[t] = g;
      dfs(depth + 1, cost_so_far + c);
      load_[g] -= tm;
      --count_[g];
      if (was_empty) ++empties_;
      if (truncated_) return;
    }
  }

  const SolveKernel& kernel_;
  const BnbOptions& opts_;
  std::size_t k_;
  std::size_t n_;
  double deadline_;
  double payment_;
  bool require_all_;
  const std::vector<std::size_t>& order_;
  std::vector<double> suffix_min_;
  std::vector<double> load_;
  std::vector<std::size_t> count_;
  std::size_t empties_ = 0;
  Assignment current_;
  Assignment incumbent_;
  double incumbent_cost_ = std::numeric_limits<double>::infinity();
  bool has_incumbent_ = false;
  bool truncated_ = false;
  std::size_t nodes_ = 0;
  std::size_t incumbent_updates_ = 0;
};

}  // namespace

AssignmentSolution BnbAssignmentSolver::solve(
    const AssignmentInstance& inst) const {
  return solve_impl(SolveKernel(inst), nullptr);
}

AssignmentSolution BnbAssignmentSolver::solve(const AssignmentInstance& inst,
                                              const WarmStart& warm) const {
  // Read the hint's kernel when it describes `inst`; otherwise build one,
  // which validates `inst`.
  const SolveKernel* kernel = warm.kernel.get();
  if (kernel != nullptr && kernel->num_gsps() == inst.num_gsps() &&
      kernel->num_tasks() == inst.num_tasks() &&
      kernel->deadline() == inst.deadline &&
      kernel->payment() == inst.payment &&
      kernel->require_all_gsps_used() == inst.require_all_gsps_used) {
    return solve_impl(*kernel, &warm);
  }
  return solve_impl(SolveKernel(inst), &warm);
}

AssignmentSolution BnbAssignmentSolver::solve_from_kernel(
    const AssignmentInstance& /*full*/, const std::vector<bool>& /*keep*/,
    const WarmStart& warm) const {
  detail::require(warm.kernel != nullptr,
                  "BnbAssignmentSolver::solve_from_kernel: no kernel");
  return solve_impl(*warm.kernel, &warm);
}

AssignmentSolution BnbAssignmentSolver::solve_impl(
    const SolveKernel& kernel, const WarmStart* warm) const {
  obs::Span span("ip.bnb.solve", "ip");

  // Accept the incumbent hint only when fully feasible ((10)-(13)); it
  // can then only tighten pruning, never change the proven status/cost.
  const bool warm_incumbent_ok = warm != nullptr && warm->has_incumbent() &&
                                 feasible(kernel, warm->incumbent);

  // A solve that accepted a derived kernel or a warm incumbent is a
  // re-verification of an incrementally modified instance;
  // warm_max_nodes (when set) caps it.
  BnbOptions effective = opts_;
  if (opts_.warm_max_nodes > 0 && (kernel.derived() || warm_incumbent_ok)) {
    effective.max_nodes = std::min(effective.max_nodes, opts_.warm_max_nodes);
  }
  Search search(kernel, effective);

  AssignmentSolution sol;
  // Warm incumbent first: a repaired previous mapping is typically
  // tighter than a fresh greedy seed.
  if (warm_incumbent_ok) {
    search.seed_incumbent(warm->incumbent, warm->incumbent_cost);
    sol.stats.warm_start_used = true;
    sol.stats.incumbent_reused_cost = warm->incumbent_cost;
    sol.stats.repair_moves = warm->repair_moves;
  }
  if (opts_.seed_with_greedy) {
    Assignment seed =
        greedy_construct(kernel, GreedyOptions::Order::RegretDescending);
    if (seed.empty()) {
      seed = greedy_construct(kernel, GreedyOptions::Order::TimeDescending);
    }
    if (!seed.empty()) {
      // Greedy construction satisfies (11)-(13) by construction.
      const double cost = local_search(kernel, seed, opts_.polish);
      search.seed_incumbent(std::move(seed), cost);
    }
  }
  const bool exhausted = search.run();

  sol.stats.nodes = search.nodes();
  sol.lower_bound = search.root_bound();
  if (search.has_incumbent()) {
    sol.assignment = search.incumbent();
    // Canonical cost: always the task-order sum, so the same final
    // assignment reports the same double regardless of the summation
    // order the search happened to use.
    sol.cost = assignment_cost(kernel, sol.assignment);
    sol.stats.status =
        exhausted ? AssignStatus::Optimal : AssignStatus::Feasible;
    if (exhausted) sol.lower_bound = sol.cost;
  } else {
    sol.stats.status =
        exhausted ? AssignStatus::Infeasible : AssignStatus::Unknown;
  }
  if (span.active()) {
    // Telemetry is sampled at the solve boundary, never per node: the
    // search above runs exactly as it does with the recorder off.
    span.arg("gsps", static_cast<double>(kernel.num_gsps()));
    span.arg("tasks", static_cast<double>(kernel.num_tasks()));
    span.arg("nodes", static_cast<double>(sol.stats.nodes));
    span.arg("incumbents", static_cast<double>(search.incumbent_updates()));
    span.arg("warm", sol.stats.warm_start_used ? 1.0 : 0.0);
    span.arg("cost", sol.cost);
    span.arg("status", to_string(sol.stats.status));
    obs::MetricRegistry& m = obs::Recorder::instance().metrics();
    m.counter("ip.bnb.solves").add();
    m.counter("ip.bnb.nodes").add(sol.stats.nodes);
    m.counter("ip.bnb.incumbent_updates").add(search.incumbent_updates());
    if (sol.stats.warm_start_used) m.counter("ip.bnb.warm_solves").add();
    if (!exhausted) m.counter("ip.bnb.budget_truncated").add();
    m.histogram("ip.bnb.nodes_per_solve")
        .observe(static_cast<double>(sol.stats.nodes));
  }
  return sol;
}

}  // namespace svo::ip
