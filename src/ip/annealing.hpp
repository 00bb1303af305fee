/// \file annealing.hpp
/// Simulated-annealing improvement for the task assignment IP — the
/// metaheuristic tier of the solver stack: greedy construct, anneal over
/// feasibility-preserving relocations/swaps, then local-search polish.
/// Escapes the local optima where plain descent (ip/local_search) stops.
/// A standalone solver: the B&B seeds only from warm incumbents and greedy.
#pragma once

#include <cstdint>

#include "ip/assignment.hpp"
#include "ip/local_search.hpp"

namespace svo::ip {

/// Options for the annealer.
struct AnnealingOptions {
  /// Proposal count.
  std::size_t iterations = 30'000;
  /// Initial temperature as a fraction of the starting cost (adaptive to
  /// the instance's scale); temperature decays geometrically to
  /// `final_temperature_fraction` over the run.
  double initial_temperature_fraction = 0.02;
  double final_temperature_fraction = 1e-5;
  /// Probability that a proposal is a swap (vs a single relocation).
  double swap_probability = 0.4;
  /// RNG seed for the proposal/acceptance stream.
  std::uint64_t seed = 0xA44EA1;
};

/// Anneal `a` in place. Requires `a` to satisfy constraints (11)-(13) on
/// entry (checked); every intermediate state satisfies them too. Returns
/// the final cost (the best state visited, not the last accepted one).
double simulated_annealing(const AssignmentInstance& inst, Assignment& a,
                           const AnnealingOptions& opts = {});

/// Full solver: greedy construction, annealing, local-search polish.
/// Reports Feasible (within payment) or Unknown; never proves anything.
class AnnealingAssignmentSolver final : public AssignmentSolver {
 public:
  explicit AnnealingAssignmentSolver(AnnealingOptions opts = {})
      : opts_(opts) {}

  using AssignmentSolver::solve;
  [[nodiscard]] AssignmentSolution solve(
      const AssignmentInstance& inst) const override;
  [[nodiscard]] std::string name() const override { return "annealing"; }

 private:
  AnnealingOptions opts_;
};

}  // namespace svo::ip
