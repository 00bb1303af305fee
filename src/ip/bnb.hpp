/// \file bnb.hpp
/// Specialized depth-first branch-and-bound for the task assignment IP
/// (9)-(14) — the workhorse behind TVOF's "IP-B&B" step (Algorithm 1,
/// line 5). Exact with proof on small instances; anytime (greedy-seeded,
/// node budgeted) at paper scale. See DESIGN.md §1 and §4.4.
///
/// Search organization:
///  - every phase reads one task-major SolveKernel (ip/solve_kernel.hpp),
///    built at solve entry or handed in by a warm hint;
///  - tasks are branched in descending static-regret order;
///  - children (GSP choices) are explored in ascending cost order;
///  - node lower bound = cost so far + sum of capacity-blind per-task
///    minimum costs of the unassigned suffix (monotone, O(1) per node);
///  - pruning against the incumbent, the payment cap (10), per-GSP
///    deadline capacity (11), and a coverage counting argument for (13).
///
/// Root screens, each a proof that the DFS would accept no leaf, so a
/// solve they fire on ends Infeasible at 0 nodes: more GSPs than tasks
/// under (13), then capacity_infeasible (ip/solve_kernel.hpp) at the
/// DFS's deadline tolerance, which subsumes "some task fits on no GSP".
/// It cannot fire beside a mapping that meets (11)-(13), so it runs only
/// with no warm incumbent and no regret-order seed, before the fallback.
#pragma once

#include "ip/assignment.hpp"
#include "ip/local_search.hpp"

namespace svo::ip {

class SolveKernel;  // ip/solve_kernel.hpp

/// Options for the B&B solver.
struct BnbOptions {
  /// Node budget; exceeding it makes the result anytime (no proof). The
  /// only budget: counting nodes, not seconds, keeps a solve's result
  /// and work the same on every host.
  std::size_t max_nodes = 500'000;
  /// Node budget (0 = use max_nodes) for warm solves, which read a
  /// derived kernel or accepted a warm incumbent: they re-verify an
  /// incrementally modified instance whose predecessor already received
  /// a full budget, so capping them keeps mechanism-loop work
  /// proportional to the change instead of re-paying the full budget per
  /// iteration. Solves that exhaust within the reduced budget (the exact
  /// regime) are bit-identical to cold; truncated ones keep the warm
  /// incumbent.
  std::size_t warm_max_nodes = 0;
  /// Seed the incumbent with greedy construction + local search.
  bool seed_with_greedy = true;
  /// Local-search options used to polish the greedy seed.
  LocalSearchOptions polish;
};

/// Branch-and-bound solver. Status semantics:
///  - Optimal:    search space exhausted, incumbent proven optimal;
///  - Infeasible: proven that no assignment satisfies (10)-(13): a root
///                screen fired, or the space was exhausted without any
///                feasible leaf;
///  - Feasible:   budget hit, best incumbent returned;
///  - Unknown:    budget hit before any incumbent was found, on a
///                coalition the root screens could not prove infeasible
///                (its LP relaxation may be feasible; (10) and (13) are
///                not screened).
class BnbAssignmentSolver final : public AssignmentSolver {
 public:
  explicit BnbAssignmentSolver(BnbOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] AssignmentSolution solve(
      const AssignmentInstance& inst) const override;
  /// Warm-started solve (ip/warm_start.hpp): seeds the incumbent from
  /// `warm` when it is feasible and reads `warm.kernel` when its shape,
  /// deadline, payment and (13) flag match `inst`. Hints only tighten
  /// pruning — a run to proof returns the same status and cost as cold.
  [[nodiscard]] AssignmentSolution solve(const AssignmentInstance& inst,
                                         const WarmStart& warm) const override;
  /// The warm solve above on `warm.kernel` itself, which must be
  /// non-null; `full` and `keep` are not read. The warm-incumbent check
  /// and the canonical cost read the kernel, so no GSP-major instance is
  /// built.
  [[nodiscard]] AssignmentSolution solve_from_kernel(
      const AssignmentInstance& full, const std::vector<bool>& keep,
      const WarmStart& warm) const override;
  [[nodiscard]] std::string name() const override { return "bnb"; }

  [[nodiscard]] const BnbOptions& options() const noexcept { return opts_; }

 private:
  /// The one solve body every entry forwards to; `warm` may be null.
  [[nodiscard]] AssignmentSolution solve_impl(const SolveKernel& kernel,
                                              const WarmStart* warm) const;

  BnbOptions opts_;
};

}  // namespace svo::ip
