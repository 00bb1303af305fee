/// \file assignment.hpp
/// The paper's task assignment problem, IP (9)-(14):
///
///   minimize   sum_{T,G} sigma(T,G) c(T,G)                          (9)
///   subject to sum_{T,G} sigma(T,G) c(T,G) <= P        (payment)   (10)
///              sum_T sigma(T,G) t(T,G) <= d  for all G (deadline)  (11)
///              sum_G sigma(T,G) = 1          for all T             (12)
///              sum_T sigma(T,G) >= 1         for all G             (13)
///              sigma binary                                        (14)
///
/// Instances index GSPs as rows (g in [0, k)) and tasks as columns
/// (t in [0, n)). Several solvers implement AssignmentSolver. A
/// coalition's instance is restrict_to's output, or, along Algorithm 1's
/// warm chain, a solve kernel derived from its parent's
/// (AssignmentSolver::solve_from_kernel), so the chain copies no
/// GSP-major matrix per coalition.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace svo::ip {

/// One task-assignment instance over k GSPs and n tasks.
struct AssignmentInstance {
  /// c(g, t): cost GSP g incurs executing task t. k x n.
  linalg::Matrix cost;
  /// t(g, t): seconds GSP g needs for task t. k x n.
  linalg::Matrix time;
  /// Deadline d: per-GSP budget on summed execution time (constraint 11).
  double deadline = 0.0;
  /// Payment P: cap on total execution cost (constraint 10).
  double payment = 0.0;
  /// Enforce constraint (13): every GSP receives at least one task.
  bool require_all_gsps_used = true;

  [[nodiscard]] std::size_t num_gsps() const noexcept { return cost.rows(); }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return cost.cols(); }

  /// Validate shape/value invariants; throws InvalidArgument on violation.
  void validate() const;

  /// Restriction of this instance to the GSPs with keep[g] == true
  /// (coalition view). `original_gsps`, when non-null, receives the
  /// mapping restricted-row -> original-row.
  [[nodiscard]] AssignmentInstance restrict_to(
      const std::vector<bool>& keep,
      std::vector<std::size_t>* original_gsps = nullptr) const;
};

/// Task -> GSP mapping: assignment[t] = row index of the GSP executing t.
using Assignment = std::vector<std::size_t>;

/// Outcome classification of a solve.
enum class AssignStatus {
  Optimal,     ///< Incumbent proven optimal.
  Feasible,    ///< Incumbent found; optimality not proven (budget hit).
  Infeasible,  ///< Proven: no assignment satisfies (10)-(13).
  Unknown,     ///< Budget exhausted with neither incumbent nor proof.
};

/// Human-readable status name.
[[nodiscard]] const char* to_string(AssignStatus s) noexcept;

/// Per-solve telemetry shared by every consumer of a solve outcome:
/// AssignmentSolution, game::CoalitionEvaluation, core::IterationRecord
/// and (aggregated) core::MechanismResult all embed this one struct
/// instead of carrying their own loose status/node fields.
struct SolveStats {
  AssignStatus status = AssignStatus::Unknown;
  /// Search-effort accounting (solver-specific units; B&B nodes).
  std::size_t nodes = 0;
  /// True when a warm-start incumbent was accepted into the search.
  bool warm_start_used = false;
  /// Cost of the accepted warm-start incumbent (0 when none was used).
  double incumbent_reused_cost = 0.0;
  /// Tasks reassigned while repairing the previous mapping into the
  /// warm-start incumbent (0 for cold solves).
  std::size_t repair_moves = 0;

  /// Accumulate another solve into this record (mechanism totals):
  /// nodes/repair_moves/incumbent costs add up, warm_start_used ORs,
  /// and status takes the most recent solve's status.
  void accumulate(const SolveStats& other) noexcept {
    status = other.status;
    nodes += other.nodes;
    warm_start_used = warm_start_used || other.warm_start_used;
    incumbent_reused_cost += other.incumbent_reused_cost;
    repair_moves += other.repair_moves;
  }
};

/// Result of a solve.
struct AssignmentSolution {
  /// Status plus search telemetry (see SolveStats).
  SolveStats stats;
  /// Valid iff stats.status is Optimal or Feasible.
  Assignment assignment;
  /// Total cost of `assignment` (constraint-(9) objective).
  double cost = 0.0;
  /// Lower bound proved on the optimum (valid even without incumbent).
  double lower_bound = 0.0;

  [[nodiscard]] bool has_assignment() const noexcept {
    return stats.status == AssignStatus::Optimal ||
           stats.status == AssignStatus::Feasible;
  }
  [[nodiscard]] bool proven_optimal() const noexcept {
    return stats.status == AssignStatus::Optimal;
  }
};

/// Total cost of `a` on `inst`. Throws DimensionMismatch on bad arity.
[[nodiscard]] double assignment_cost(const AssignmentInstance& inst,
                                     const Assignment& a);

/// Check every IP constraint (10)-(13) for `a`; returns an empty string
/// when feasible, else a description of the first violated constraint.
[[nodiscard]] std::string check_feasible(const AssignmentInstance& inst,
                                         const Assignment& a,
                                         double tol = 1e-9);

struct WarmStart;  // ip/warm_start.hpp

/// Abstract assignment solver (strategy interface for the mechanisms).
class AssignmentSolver {
 public:
  virtual ~AssignmentSolver() = default;
  /// Solve `inst`; never throws for infeasibility (reported via status).
  [[nodiscard]] virtual AssignmentSolution solve(
      const AssignmentInstance& inst) const = 0;
  /// Warm-started solve. `warm` carries hints only — an incumbent
  /// candidate and reusable combinatorial bounds — so honouring it may
  /// tighten pruning but never change status or cost relative to the
  /// cold solve (when the search runs to proof). The default ignores
  /// the hints and performs a cold solve, which keeps every heuristic
  /// solver correct without modification.
  [[nodiscard]] virtual AssignmentSolution solve(const AssignmentInstance& inst,
                                                const WarmStart& warm) const;
  /// Warm-started solve of full.restrict_to(keep), whose solve kernel
  /// `warm.kernel` must be: Algorithm 1's warm chain hands over the
  /// kernel it derived. The default builds restrict_to's output and
  /// calls solve(inst, warm), so a solver that overrides only the two
  /// entries above works unchanged; a solver that reads kernels can
  /// solve on `warm.kernel` alone and build no instance.
  [[nodiscard]] virtual AssignmentSolution solve_from_kernel(
      const AssignmentInstance& full, const std::vector<bool>& keep,
      const WarmStart& warm) const;
  /// Identifying name for logs and benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace svo::ip
