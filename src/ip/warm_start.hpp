/// \file warm_start.hpp
/// Incremental solve support for the shrinking-coalition loop of
/// Algorithm 1. Consecutive mechanism iterations solve assignment
/// instances that differ by exactly one removed GSP row, so a solve can
/// reuse two artifacts of its predecessor:
///
///  1. an *incumbent*: the previous optimal/incumbent mapping, repaired
///     by reassigning only the tasks that lived on the removed GSP
///     (greedy min-cost insertion + a relocation polish restricted to
///     the moved tasks);
///  2. *combinatorial bounds*: the per-task cost-sorted GSP orders and
///     per-task minimum costs. Removing a row of the parent instance
///     preserves the relative order of the surviving rows, so the
///     restricted orders are obtained by filtering — never re-sorting.
///
/// Both are hints: a warm incumbent only tightens branch-and-bound
/// pruning, and the filtered orders are bit-identical to the ones a
/// cold solve would compute (stable sorts + order-preserving row
/// restriction), so a warm solve that runs to proof returns the same
/// status and cost as the cold solve. DESIGN.md "Incremental solve
/// across iterations" carries the argument.
#pragma once

#include <cstdint>
#include <memory>

#include "ip/assignment.hpp"

namespace svo::ip {

/// Per-task GSP cost orders of a *parent* instance, computed once and
/// shared (via shared_ptr) by every descendant solve. Row indices are
/// parent rows.
class CostOrderCache {
 public:
  /// Precompute the stable cost-ascending GSP order of every task
  /// (stable_cost_order over a contiguous copy of the task's costs).
  explicit CostOrderCache(const AssignmentInstance& parent);

  [[nodiscard]] std::size_t num_gsps() const noexcept { return k_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return n_; }

  /// Parent rows of task `t`, cost-ascending (stable). Length k.
  [[nodiscard]] const std::uint32_t* order(std::size_t t) const noexcept {
    return order_.data() + t * k_;
  }

 private:
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> order_;  // n x k, row-major per task
};

/// Warm-start hints for one solve. Everything is optional: an empty
/// incumbent means "no incumbent hint", a null cost_order means
/// "recompute the bounds".
struct WarmStart {
  /// Candidate incumbent: task -> row *of the instance being solved*.
  /// Must satisfy constraints (11)-(13) when non-empty; the payment cap
  /// (10) is checked by the receiving solver.
  Assignment incumbent;
  /// Total cost of `incumbent` (assignment_cost); meaningful iff the
  /// incumbent is non-empty.
  double incumbent_cost = 0.0;
  /// Tasks the repair step reassigned to build the incumbent
  /// (telemetry; forwarded into SolveStats::repair_moves).
  std::size_t repair_moves = 0;
  /// Cost orders of the parent instance this solve's instance was
  /// restricted from (see CostOrderCache).
  std::shared_ptr<const CostOrderCache> cost_order;
  /// rows[r] = parent row of row r of the instance being solved,
  /// strictly increasing (as AssignmentInstance::restrict_to returns).
  /// Required (and only used) when cost_order is set.
  std::vector<std::size_t> rows;

  [[nodiscard]] bool has_incumbent() const noexcept {
    return !incumbent.empty();
  }
  [[nodiscard]] bool has_bounds() const noexcept {
    return cost_order != nullptr;
  }
};

/// Outcome of repair_for_removal().
struct RepairResult {
  /// True when every task found a feasible executor; false leaves
  /// `assignment` empty.
  bool ok = false;
  /// Repaired mapping: task -> row of `inst` (the restricted instance).
  Assignment assignment;
  /// assignment_cost of the repaired mapping (may exceed the payment
  /// cap — the receiving solver filters).
  double cost = 0.0;
  /// Tasks reassigned: the removed GSP's tasks plus every improving
  /// relocation the polish applied.
  std::size_t moves = 0;
};

/// Repair the parent iteration's mapping after one GSP was removed.
///
/// `inst` is the restricted (child) instance; `rows[r]` is the parent
/// row of child row r; `parent_assignment` maps each task to a parent
/// row; `removed_parent_row` is the row that left. Tasks on surviving
/// rows keep their executor; tasks on the removed row are reinserted
/// greedily (cheapest feasible surviving GSP under the deadline), then
/// a relocation polish restricted to the moved tasks runs until no
/// moved task improves (at most `polish_passes` passes). The result
/// satisfies (11)-(13) by construction whenever ok is true.
[[nodiscard]] RepairResult repair_for_removal(
    const AssignmentInstance& inst, const std::vector<std::size_t>& rows,
    const Assignment& parent_assignment, std::size_t removed_parent_row,
    std::size_t polish_passes = 8);

}  // namespace svo::ip
