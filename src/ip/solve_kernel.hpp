/// \file solve_kernel.hpp
/// The immutable, task-major view of one assignment instance that every
/// phase of a solve reads: greedy construction, local-search polish and
/// the B&B's depth-first search. AssignmentInstance stores costs and
/// times GSP-major (k x n), but every phase walks one task's k GSPs at
/// a time; the kernel lays each task's k costs and k times out
/// contiguously and computes, once, what the phases share:
///
///  - each task's stable cost-ascending GSP order (the B&B's child
///    order; local search's relocation scan), either filtered from a
///    parent instance's CostOrderCache or sorted;
///  - each task's minimum cost (the B&B's capacity-blind bound);
///  - one regret order — tasks by descending gap between their two
///    cheapest GSPs, ties by index — which is both the B&B's branching
///    order and greedy construction's RegretDescending task order.
///
/// Building a kernel validates the instance; each solver entry builds
/// one kernel, so a solve validates once. See DESIGN.md §4c.
#pragma once

#include <cstdint>
#include <vector>

#include "ip/assignment.hpp"

namespace svo::ip {

class CostOrderCache;  // ip/warm_start.hpp

/// Write the stable cost-ascending order of GSPs 0..k-1 into `order`:
/// ascending `costs[g]`, ties by ascending g. `costs` must hold no NaN
/// (AssignmentInstance::validate rejects them). The single child-order
/// implementation behind SolveKernel and CostOrderCache.
void stable_cost_order(const double* costs, std::size_t k,
                       std::uint32_t* order);

/// Task-major solve data for one instance; immutable once built.
class SolveKernel {
 public:
  /// Validate `inst` (AssignmentInstance::validate) and build its kernel.
  /// `cache` and `rows` may offer a parent instance's cost orders, with
  /// row r of `inst` being row rows[r] of the cache's parent. When they
  /// match `inst` — one parent row per GSP, strictly increasing, and the
  /// same tasks — the cost orders are filtered from the cache, which is
  /// bit-identical to sorting because row restriction preserves relative
  /// order and both orders are stable; otherwise they are sorted. Only
  /// the pointers' targets are read, and only during construction.
  explicit SolveKernel(const AssignmentInstance& inst,
                       const CostOrderCache* cache = nullptr,
                       const std::vector<std::size_t>* rows = nullptr);

  /// True when the cost orders were filtered from the offered cache.
  [[nodiscard]] bool reused_cost_orders() const noexcept {
    return reused_cost_orders_;
  }

  [[nodiscard]] std::size_t num_gsps() const noexcept { return k_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return n_; }
  [[nodiscard]] double deadline() const noexcept { return deadline_; }
  [[nodiscard]] double payment() const noexcept { return payment_; }
  [[nodiscard]] bool require_all_gsps_used() const noexcept {
    return require_all_gsps_used_;
  }

  /// c(g, t) for g in [0, k): task t's costs, contiguous.
  [[nodiscard]] const double* costs(std::size_t t) const noexcept {
    return cost_.data() + t * k_;
  }
  /// t(g, t) for g in [0, k): task t's execution times, contiguous.
  [[nodiscard]] const double* times(std::size_t t) const noexcept {
    return time_.data() + t * k_;
  }
  /// Task t's GSPs by ascending cost, ties by index. Length k.
  [[nodiscard]] const std::uint32_t* cost_order(std::size_t t) const noexcept {
    return order_.data() + t * k_;
  }
  /// Cheapest cost of task t over all GSPs (capacity-blind).
  [[nodiscard]] double min_cost(std::size_t t) const noexcept {
    return min_cost_[t];
  }
  /// All tasks by descending regret, ties by index. A task's regret is
  /// its second-cheapest cost minus its cheapest, or 0 when the second
  /// is not finite (one GSP, or +inf costs).
  [[nodiscard]] const std::vector<std::size_t>& regret_order() const noexcept {
    return regret_order_;
  }

 private:
  std::size_t k_;
  std::size_t n_;
  double deadline_;
  double payment_;
  bool require_all_gsps_used_;
  bool reused_cost_orders_ = false;
  std::vector<double> cost_;           // n x k, row t = task t
  std::vector<double> time_;           // n x k, row t = task t
  std::vector<std::uint32_t> order_;   // n x k, row t = task t
  std::vector<double> min_cost_;       // per task
  std::vector<std::size_t> regret_order_;
};

}  // namespace svo::ip
