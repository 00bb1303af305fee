/// \file solve_kernel.hpp
/// The immutable, task-major view of one assignment instance that every
/// phase of a solve reads: greedy construction, local-search polish and
/// the B&B's depth-first search. AssignmentInstance stores costs and
/// times GSP-major (k x n), but every phase walks one task's k GSPs at
/// a time; the kernel lays each task's k costs and k times out
/// contiguously and computes, once, what the phases share:
///
///  - each task's stable cost-ascending GSP order (the B&B's child
///    order; local search's relocation scan);
///  - each task's minimum cost (the B&B's capacity-blind bound) and
///    regret;
///  - one regret order — tasks by descending gap between their two
///    cheapest GSPs, ties by index — which is both the B&B's branching
///    order and greedy construction's RegretDescending task order.
///
/// A kernel is built from an instance, which validates it, or derived
/// from a parent kernel by dropping one GSP row as Algorithm 1's
/// coalition shrinks. See DESIGN.md §4c. Nothing it computes depends on
/// the deadline or the payment, so retarget() may change those two in
/// place; every other field is fixed once built.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ip/assignment.hpp"

namespace svo::ip {

/// Write the stable cost-ascending order of GSPs 0..k-1 into `order`:
/// ascending `costs[g]`, ties by ascending g. `costs` must hold no NaN
/// (AssignmentInstance::validate rejects them).
void stable_cost_order(const double* costs, std::size_t k,
                       std::uint32_t* order);

/// Task-major solve data for one instance; only the deadline and the
/// payment can change once built.
class SolveKernel {
 public:
  /// Validate `inst` (AssignmentInstance::validate) and build its kernel.
  explicit SolveKernel(const AssignmentInstance& inst);

  /// Derive the kernel of `parent`'s instance with GSP row `removed_row`
  /// dropped, bit-identical (every field, the regret order included) to
  /// building it from AssignmentInstance::restrict_to's output: each
  /// task's cost order is the parent's minus the row, renumbered, and
  /// only tasks whose regret changed are re-sorted and merged back. It
  /// does not re-validate: the values were validated at the root.
  /// Requires parent.num_gsps() >= 2 and removed_row < parent.num_gsps().
  SolveKernel(const SolveKernel& parent, std::size_t removed_row);

  /// Replace the deadline and the payment, as if the kernel had been
  /// built from the same instance with these two values. Throws
  /// InvalidArgument where AssignmentInstance::validate would: unless
  /// deadline > 0 and payment >= 0.
  void retarget(double deadline, double payment);

  /// True when this kernel was derived from a parent kernel.
  [[nodiscard]] bool derived() const noexcept { return derived_; }

  [[nodiscard]] std::size_t num_gsps() const noexcept { return k_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return n_; }
  [[nodiscard]] double deadline() const noexcept { return deadline_; }
  [[nodiscard]] double payment() const noexcept { return payment_; }
  [[nodiscard]] bool require_all_gsps_used() const noexcept {
    return require_all_gsps_used_;
  }

  /// c(g, t) for g in [0, k): task t's costs, contiguous.
  [[nodiscard]] const double* costs(std::size_t t) const noexcept {
    return cost_.get() + t * k_;
  }
  /// t(g, t) for g in [0, k): task t's execution times, contiguous.
  [[nodiscard]] const double* times(std::size_t t) const noexcept {
    return time_.get() + t * k_;
  }
  /// Task t's GSPs by ascending cost, ties by index. Length k.
  [[nodiscard]] const std::uint32_t* cost_order(std::size_t t) const noexcept {
    return order_.get() + t * k_;
  }
  /// Cheapest cost of task t over all GSPs (capacity-blind).
  [[nodiscard]] double min_cost(std::size_t t) const noexcept {
    return min_cost_[t];
  }
  /// Task t's second-cheapest cost minus its cheapest, or 0 when the
  /// second is not finite (one GSP, or +inf costs).
  [[nodiscard]] double regret(std::size_t t) const noexcept {
    return regret_[t];
  }
  /// All tasks by descending regret, ties by index.
  [[nodiscard]] const std::vector<std::size_t>& regret_order() const noexcept {
    return regret_order_;
  }

 private:
  std::size_t k_;
  std::size_t n_;
  double deadline_;
  double payment_;
  bool require_all_gsps_used_;
  bool derived_ = false;
  // n x k, row t = task t; allocated uninitialized and written once.
  std::unique_ptr<double[]> cost_;
  std::unique_ptr<double[]> time_;
  std::unique_ptr<std::uint32_t[]> order_;
  std::vector<double> min_cost_;       // per task
  std::vector<double> regret_;         // per task
  std::vector<std::size_t> regret_order_;
};

/// assignment_cost on the kernel's instance: the same doubles summed in
/// the same task order, so the same bits. Throws DimensionMismatch on
/// bad arity.
[[nodiscard]] double assignment_cost(const SolveKernel& kernel,
                                     const Assignment& a);

/// True when check_feasible on the kernel's instance, at its default
/// tolerance, would find no violated constraint of (10)-(13); the same
/// sums in the same order.
[[nodiscard]] bool feasible(const SolveKernel& kernel, const Assignment& a);

/// True when a capacity certificate proves that no assignment keeps every
/// GSP's load within d + `tolerance`, where d is the kernel's deadline:
/// a Farkas certificate for the LP relaxation of (11)-(12), LP(d) of
/// Lenstra, Shmoys and Tardos (Math. Programming 46, 1990). With c = d +
/// `tolerance` and each GSP weighted by mu_g = 1 / sum_t t(g, t):
///  - any such assignment has sum_g mu_g load_g <= c sum_g mu_g;
///  - the same sum, taken task by task, is at least need = sum_t of the
///    least mu_g t(g, t) over the GSPs with t(g, t) <= c.
/// So it fires when need > c sum_g mu_g (1 + 1e-9), or when a task fits
/// on no GSP. The 1e-9 relative margin covers the rounding of either
/// summation order, at most n 2^-53. Under consistent times (t(g, t) =
/// w_t / s_g) the weights are proportional to the speeds s_g, and the
/// test reads "the tasks' work exceeds c times the total speed". (10)
/// and (13) are ignored, which can only miss proofs. A non-finite c,
/// column sum or need never certifies. Two O(nk) passes.
[[nodiscard]] bool capacity_infeasible(const SolveKernel& kernel,
                                       double tolerance);

}  // namespace svo::ip
