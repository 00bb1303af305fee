/// \file mechanism.hpp
/// VO formation mechanisms — the paper's primary contribution.
///
/// Both TVOF (Algorithm 1) and the RVOF baseline share the same loop,
/// executed here by a simulated trusted party:
///
///   C <- all GSPs; L <- {}
///   repeat
///     map the program on C with the IP solver          (line 5)
///     if feasible: L <- L u {C}                        (lines 6-9)
///     x <- REPUTATION(C, E_C)                          (line 10)
///     remove one GSP from C                            (lines 11-12)
///   until the mapping was infeasible                   (line 13)
///   select argmax_{C in L} v(C)/|C| and execute        (lines 14-15)
///
/// The only difference between mechanisms is the removal rule (TVOF:
/// lowest recomputed reputation, random tie-break; RVOF: uniformly
/// random), which is exactly how the paper isolates the reputation
/// signal.
///
/// Reputation bookkeeping (DESIGN.md §4): the removal decision uses
/// scores recomputed on the shrinking VO's induced subgraph (Algorithm 1
/// line 10); the *metric* reported per iteration — the paper's "average
/// global reputation" of eq. (7), plotted in Figs. 3 and 5-8 — averages
/// the global (full-graph) reputation scores over the VO's members.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "game/coalition.hpp"
#include "game/value_function.hpp"
#include "ip/assignment.hpp"
#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"
#include "util/rng.hpp"

namespace svo::core {

/// How the final VO is chosen from the feasible list L.
enum class SelectionRule {
  /// argmax v(C)/|C| — the paper's rule (Algorithm 1 line 14).
  MaxIndividualPayoff,
  /// argmax (v(C)/|C|) * xbar(C) — the comparison rule of Fig. 4.
  MaxPayoffReputationProduct,
  /// Risk-aware extension: argmax (p(C) * P - C(T,C)) / |C|, where
  /// p(C) = prod of the members' trust-derived reliability estimates —
  /// the expected payoff under the all-or-nothing payment of Section
  /// II-A when each member delivers with its estimated probability.
  MaxExpectedIndividualPayoff,
};

/// Trust-derived reliability estimate of one GSP: the mean incoming
/// direct trust (each weight clamped into [0,1]), i.e. what its past
/// partners observed of its delivery. GSPs nobody has evidence about
/// default to `prior`.
[[nodiscard]] double estimate_reliability(const trust::TrustGraph& trust,
                                          std::size_t gsp,
                                          double prior = 0.5);

/// One mechanism iteration as recorded in the journal (drives Figs. 5-8).
struct IterationRecord {
  game::Coalition coalition;
  bool feasible = false;
  /// C(T, C): assignment cost (feasible iterations only).
  double cost = 0.0;
  /// v(C) = P - C(T, C), eq. (15).
  double value = 0.0;
  /// Equal share v(C)/|C|, eq. (18).
  double payoff_share = 0.0;
  /// eq. (7) over the *global* reputation scores of the members.
  double avg_global_reputation = 0.0;
  /// Average of the coalition-recomputed scores (= 1/|C|; see DESIGN.md).
  double avg_local_reputation = 0.0;
  /// GSP removed *after* this iteration; SIZE_MAX on the last iteration.
  std::size_t removed_gsp = SIZE_MAX;
  /// Solver telemetry for this coalition's IP (status, nodes explored,
  /// warm-start usage, repair moves).
  ip::SolveStats stats;
};

/// Full mechanism outcome.
struct MechanismResult {
  /// False when no VO could execute the program at all.
  bool success = false;
  /// The selected VO C_k.
  game::Coalition selected;
  /// Final task -> GSP mapping (original GSP indices).
  ip::Assignment mapping;
  double cost = 0.0;
  double value = 0.0;
  /// Individual payoff of each member of the selected VO (equal share).
  double payoff_share = 0.0;
  /// eq. (7) over global scores, of the selected VO.
  double avg_global_reputation = 0.0;
  /// Global reputation vector over all GSPs (input to the metric).
  std::vector<double> global_reputation;
  /// Per-iteration journal, in execution order (includes the terminal
  /// infeasible iteration).
  std::vector<IterationRecord> journal;
  /// Wall-clock mechanism time, seconds (paper Fig. 9).
  double elapsed_seconds = 0.0;
  /// Solver telemetry accumulated over all iterations: `stats.nodes` is
  /// the total node count, `stats.status` the last iteration's status,
  /// `stats.warm_start_used` whether any iteration reused an incumbent,
  /// `stats.repair_moves` the total repair work.
  ip::SolveStats stats;
};

/// Mechanism configuration shared by TVOF and RVOF.
struct MechanismConfig {
  trust::ReputationOptions reputation;
  SelectionRule selection = SelectionRule::MaxIndividualPayoff;
};

/// Whether the shrinking-coalition loop carries solve artifacts from
/// one iteration into the next (ip/warm_start.hpp).
enum class WarmStartPolicy {
  /// Every iteration solves cold, as the seed implementation did.
  Off,
  /// Repair the previous iteration's mapping after the removal and hand
  /// it to the solver as a warm incumbent, together with the solve
  /// kernel derived from the previous iteration's. Hints only tighten
  /// pruning: a solver that runs to proof selects a bit-identical VO at
  /// identical cost (enforced by tests/core/warm_start_test.cpp).
  Incremental,
};

/// Everything one VO-formation run needs, as a single value. The
/// unified entry point of VoFormationMechanism::run; the positional
/// run() overloads are thin wrappers that build one of these.
///
/// Referenced objects (instance, trust, rng) must outlive the call.
struct FormationRequest {
  const ip::AssignmentInstance& instance;
  const trust::TrustGraph& trust;
  /// Drives tie-breaking / random removal. Consumed identically under
  /// both warm-start policies, so removal sequences match bit for bit.
  util::Xoshiro256& rng;
  /// Candidate pool Algorithm 1 starts from; empty means the grand
  /// coalition over all of the instance's GSPs.
  game::Coalition candidates{};
  WarmStartPolicy warm_start = WarmStartPolicy::Incremental;
};

/// Abstract VO-formation mechanism (template method over the removal
/// rule). Thread-safe for concurrent run() calls: all mutable state is
/// local to run().
class VoFormationMechanism {
 public:
  /// `solver` must outlive the mechanism.
  VoFormationMechanism(const ip::AssignmentSolver& solver,
                       MechanismConfig config);
  virtual ~VoFormationMechanism() = default;

  /// Execute the mechanism on one request — the single implementation
  /// every other entry point funnels into. Results are deterministic in
  /// (instance, trust, rng state, candidates); the warm-start policy
  /// changes solver work, never the outcome (see WarmStartPolicy).
  [[nodiscard]] MechanismResult run(const FormationRequest& request) const;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] const MechanismConfig& config() const noexcept {
    return config_;
  }

 protected:
  /// Pick the member of `members` to remove. `scores[i]` is the
  /// recomputed reputation of members[i] on the current VO's subgraph
  /// (Algorithm 1 line 10); `trust` is provided so alternative removal
  /// rules (centrality ablations) can derive their own signal. Returns an
  /// index into `members`.
  [[nodiscard]] virtual std::size_t choose_removal(
      const trust::TrustGraph& trust, const std::vector<std::size_t>& members,
      const std::vector<double>& scores, util::Xoshiro256& rng) const = 0;

 private:
  const ip::AssignmentSolver& solver_;
  MechanismConfig config_;
};

}  // namespace svo::core
