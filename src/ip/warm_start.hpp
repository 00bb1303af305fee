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
///  2. its *solve kernel*, derived from the predecessor's by dropping
///     the removed row (SolveKernel's derivation), which is
///     bit-identical to building the kernel of the restricted instance.
///
/// Both are hints: a warm incumbent only tightens branch-and-bound
/// pruning, and a derived kernel holds exactly what a cold solve would
/// build, so a warm solve that runs to proof returns the same status
/// and cost as the cold solve. DESIGN.md "Incremental solve across
/// iterations" carries the argument.
#pragma once

#include <memory>

#include "ip/assignment.hpp"
#include "ip/solve_kernel.hpp"

namespace svo::ip {

/// Warm-start hints for one solve. Everything is optional: an empty
/// incumbent means "no incumbent hint", a null kernel means "build the
/// kernel from the instance".
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
  /// The solve kernel of the instance being solved, built or derived by
  /// the caller (game::VoValueFunction keeps the chain). A solver that
  /// reads kernels uses it only when its shape, deadline, payment and
  /// (13) flag match the instance; its contents are trusted.
  std::shared_ptr<const SolveKernel> kernel;

  [[nodiscard]] bool has_incumbent() const noexcept {
    return !incumbent.empty();
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
