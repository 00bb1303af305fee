/// \file greedy.hpp
/// Greedy constructive solver for the task assignment IP: regret-ordered
/// min-cost insertion under deadline capacities, coverage repair for
/// constraint (13), then local-search polish. Fast (O(nk log n)) and used
/// both standalone (large instances) and as the B&B incumbent seed.
#pragma once

#include "ip/assignment.hpp"
#include "ip/local_search.hpp"

namespace svo::ip {

class SolveKernel;  // ip/solve_kernel.hpp

/// Options for the greedy solver.
struct GreedyOptions {
  /// Task processing order of greedy_construct.
  enum class Order {
    RegretDescending,  ///< By cost spread between two cheapest GSPs.
    TimeDescending,    ///< Hardest (longest) tasks first (best-fit-decreasing).
  };
  /// Polish the constructed assignment with local search.
  bool polish = true;
  LocalSearchOptions local_search;
};

/// Greedy (regret order, time order if that fails) + local search. Status
/// is Feasible when a constraint-satisfying assignment is found, Unknown
/// otherwise (a heuristic can never prove infeasibility). Never Optimal.
class GreedyAssignmentSolver final : public AssignmentSolver {
 public:
  explicit GreedyAssignmentSolver(GreedyOptions opts = {}) : opts_(opts) {}

  using AssignmentSolver::solve;
  /// Builds a SolveKernel (validating `inst`) and solves it.
  [[nodiscard]] AssignmentSolution solve(
      const AssignmentInstance& inst) const override;
  /// Solve an already-built kernel (ip/solve_kernel.hpp).
  [[nodiscard]] AssignmentSolution solve(const SolveKernel& kernel) const;
  [[nodiscard]] std::string name() const override { return "greedy"; }

 private:
  GreedyOptions opts_;
};

/// Construction step only (no polish, no payment check): attempts to build
/// an assignment satisfying (11)-(13). Returns empty vector on failure.
/// Exposed separately so the B&B can seed from it with its own polish.
/// Builds a SolveKernel (validating `inst`) and runs the overload below.
[[nodiscard]] Assignment greedy_construct(const AssignmentInstance& inst,
                                          GreedyOptions::Order order);

/// greedy_construct on an already-built kernel (ip/solve_kernel.hpp):
/// RegretDescending takes the kernel's regret order as its task order.
[[nodiscard]] Assignment greedy_construct(const SolveKernel& kernel,
                                          GreedyOptions::Order order);

}  // namespace svo::ip
