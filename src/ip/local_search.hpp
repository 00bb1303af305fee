/// \file local_search.hpp
/// Feasibility-preserving local search used to polish incumbents: single
/// task relocations plus (sampled) pairwise swaps. Shared by the greedy
/// solver and by the B&B's incumbent seeding.
#pragma once

#include <cstdint>

#include "ip/assignment.hpp"

namespace svo::ip {

class SolveKernel;  // ip/solve_kernel.hpp

/// Options for local_search().
struct LocalSearchOptions {
  /// Max full relocation passes (a pass visits every task once).
  std::size_t max_move_passes = 20;
  /// Max swap passes.
  std::size_t max_swap_passes = 2;
  /// Random swap partners examined per task per pass; 0 = exhaustive
  /// O(n^2) swaps (use only for small instances / tests).
  std::size_t swap_sample_per_task = 8;
  /// Seed for the swap sampling RNG (results are deterministic in it).
  std::uint64_t seed = 0x5e11c0de;
};

/// Improve `a` in place without ever violating constraints (11)-(13);
/// constraint (10) is an objective cap, handled by the caller. Requires
/// `a` to satisfy (11)-(13) on entry (checked). Returns the final cost.
/// Builds a SolveKernel (validating `inst`) and runs the overload below.
double local_search(const AssignmentInstance& inst, Assignment& a,
                    const LocalSearchOptions& opts = {});

/// local_search on an already-built kernel (ip/solve_kernel.hpp). The
/// entry condition is the caller's: solvers pass assignments that
/// satisfy (11)-(13) by construction, so it is not re-checked here.
double local_search(const SolveKernel& kernel, Assignment& a,
                    const LocalSearchOptions& opts = {});

}  // namespace svo::ip
