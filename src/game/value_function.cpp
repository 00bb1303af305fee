#include "game/value_function.hpp"

#include <bit>

namespace svo::game {

VoValueFunction::VoValueFunction(const ip::AssignmentInstance& inst,
                                 const ip::AssignmentSolver& solver)
    : inst_(inst), solver_(solver) {
  inst_.validate();
  detail::require(inst_.num_gsps() <= Coalition::kMaxPlayers,
                  "VoValueFunction: more than 64 GSPs");
}

const CoalitionEvaluation& VoValueFunction::evaluate(Coalition c) const {
  return evaluate_impl(c, nullptr);
}

const CoalitionEvaluation& VoValueFunction::evaluate(
    Coalition c, const WarmHint& hint) const {
  return evaluate_impl(c, &hint);
}

const CoalitionEvaluation& VoValueFunction::evaluate_impl(
    Coalition c, const WarmHint* hint) const {
  const auto it = cache_.find(c.bits());
  if (it != cache_.end()) return it->second;

  CoalitionEvaluation eval;
  if (!c.empty()) {
    detail::require(Coalition::all(inst_.num_gsps()).bits() ==
                        (c.bits() | Coalition::all(inst_.num_gsps()).bits()),
                    "VoValueFunction: coalition has players outside the game");
    std::vector<std::size_t> original;
    const ip::AssignmentInstance sub =
        inst_.restrict_to(c.mask(inst_.num_gsps()), &original);

    ip::AssignmentSolution sol;
    if (hint != nullptr) {
      // Derive from the kept kernel when it is the parent coalition's:
      // the removed GSP's parent row is the number of members below it.
      const std::size_t g = hint->removed_gsp;
      if (kernel_ != nullptr && g < inst_.num_gsps() && !c.contains(g) &&
          c.with(g) == kernel_coalition_) {
        kernel_ = std::make_shared<const ip::SolveKernel>(
            *kernel_, std::popcount(c.bits() & ((std::uint64_t{1} << g) - 1)));
      } else {
        kernel_ = std::make_shared<const ip::SolveKernel>(sub);
      }
      kernel_coalition_ = c;
      ip::WarmStart warm;
      warm.kernel = kernel_;
      if (hint->previous != nullptr && hint->previous->feasible &&
          hint->previous->mapping.size() == inst_.num_tasks()) {
        const ip::RepairResult repaired = ip::repair_for_removal(
            sub, original, hint->previous->mapping, hint->removed_gsp);
        if (repaired.ok) {
          warm.incumbent = repaired.assignment;
          warm.incumbent_cost = repaired.cost;
          warm.repair_moves = repaired.moves;
        }
      }
      sol = solver_.solve(sub, warm);
    } else {
      sol = solver_.solve(sub);
    }
    eval.stats = sol.stats;
    if (sol.has_assignment()) {
      eval.feasible = true;
      eval.cost = sol.cost;
      eval.value = inst_.payment - sol.cost;  // eq. (15)
      eval.mapping.resize(sol.assignment.size());
      for (std::size_t t = 0; t < sol.assignment.size(); ++t) {
        eval.mapping[t] = original[sol.assignment[t]];
      }
    }
  }
  return cache_.emplace(c.bits(), std::move(eval)).first->second;
}

}  // namespace svo::game
