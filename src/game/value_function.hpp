/// \file value_function.hpp
/// The VO formation game's characteristic function, eq. (15):
///
///   v(C) = 0                 if C is empty or the IP is infeasible,
///   v(C) = P - C(T, C)       otherwise,
///
/// where C(T, C) is the optimal (or best-found) assignment cost of the
/// program on coalition C. Evaluations are memoized per coalition mask,
/// so a mechanism run and subsequent game-theoretic analysis (stability,
/// Shapley, core) never solve the same IP twice.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>

#include "game/coalition.hpp"
#include "ip/assignment.hpp"
#include "ip/warm_start.hpp"

namespace svo::game {

/// One memoized coalition evaluation.
struct CoalitionEvaluation {
  /// Whether the solver produced a constraint-satisfying mapping.
  bool feasible = false;
  /// v(C) per eq. (15); 0 when infeasible.
  double value = 0.0;
  /// C(T, C): total assignment cost (meaningful only when feasible).
  double cost = 0.0;
  /// Task -> *original* GSP index mapping (empty when infeasible).
  ip::Assignment mapping;
  /// Solver telemetry (status, nodes, warm-start usage).
  ip::SolveStats stats;
};

/// Warm-start hint for evaluate(): the evaluation of the parent
/// coalition C in the shrinking loop, plus the (original-index) GSP
/// whose removal produced the coalition being evaluated (neither on the
/// first iteration, which starts the kernel chain). The hint is advisory
/// — warm and cold evaluations of the same coalition agree on
/// feasibility, cost, value, and mapping whenever the solver runs to
/// proof (see ip/warm_start.hpp).
struct WarmHint {
  /// Evaluation of the parent coalition; must stay alive for the call.
  /// References into the VoValueFunction cache are stable.
  const CoalitionEvaluation* previous = nullptr;
  /// Original GSP index removed from the parent coalition.
  std::size_t removed_gsp = SIZE_MAX;
};

/// Memoizing characteristic function. Holds references to the instance
/// and solver; both must outlive this object.
class VoValueFunction {
 public:
  /// `inst` covers all m GSPs; coalitions restrict it by row.
  VoValueFunction(const ip::AssignmentInstance& inst,
                  const ip::AssignmentSolver& solver);

  /// Number of players (GSPs) in the underlying instance.
  [[nodiscard]] std::size_t num_players() const noexcept {
    return inst_.num_gsps();
  }

  /// Full evaluation of coalition `c` (memoized). An Unknown solver
  /// outcome is treated as infeasible for game semantics — both
  /// mechanisms see the identical solver, so comparisons stay fair
  /// (DESIGN.md §4.4). Throws InvalidArgument if `c` exceeds m players.
  const CoalitionEvaluation& evaluate(Coalition c) const;

  /// Warm evaluation: like evaluate(c), but solves through
  /// ip::AssignmentSolver::solve_from_kernel with an ip::WarmStart whose
  /// kernel is derived from the kept kernel when that is the parent
  /// coalition c + {hint.removed_gsp}'s (otherwise built from the
  /// instance itself for the grand coalition, or from its restriction
  /// to c; it becomes the kept one) and, when `hint.previous` holds a
  /// feasible mapping of the parent, its repair (only the removed GSP's
  /// tasks move) as a warm incumbent. Memoized identically to
  /// evaluate(c); a cache hit ignores the hint.
  const CoalitionEvaluation& evaluate(Coalition c, const WarmHint& hint) const;

  /// v(C) shortcut.
  [[nodiscard]] double value(Coalition c) const { return evaluate(c).value; }

  /// Number of distinct coalitions evaluated so far.
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return cache_.size();
  }

 private:
  const CoalitionEvaluation& evaluate_impl(Coalition c,
                                           const WarmHint* hint) const;

  const ip::AssignmentInstance& inst_;
  const ip::AssignmentSolver& solver_;
  mutable std::unordered_map<std::uint64_t, CoalitionEvaluation> cache_;
  /// The newest warm evaluation's solve kernel and its coalition: the
  /// parent the next evaluation of the chain derives from.
  mutable std::shared_ptr<const ip::SolveKernel> kernel_;
  mutable Coalition kernel_coalition_;
};

}  // namespace svo::game
