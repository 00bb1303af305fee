/// \file adversary.hpp
/// Closed-loop resilience harness: the trust-learning loop of
/// learning.hpp with an adversary wedged between observation and
/// decision. Each round the attackers perturb the *reported* trust graph
/// (trust/attack.hpp) that the mechanism forms its VO from, while honest
/// execution outcomes keep updating the underlying honest graph; the
/// attackers' hidden reliability is poor, so a mechanism fooled into
/// selecting them loses realized value. Defenses (trust/robust.hpp) are
/// switched per arm through the mechanism's ReputationOptions, which is
/// exactly how bench_extension_attacks compares TVOF-literal,
/// TVOF-robust and RVOF under the same attack.
///
/// With an empty scenario and defenses off, run_adversarial_loop is
/// bit-identical to run_closed_loop for the same (mechanism kind,
/// config, reliability, seed) — enforced by
/// tests/sim/adversary_test.cpp.
#pragma once

#include <optional>

#include "core/mechanism.hpp"
#include "ip/assignment.hpp"
#include "sim/config.hpp"
#include "sim/learning.hpp"
#include "trust/attack.hpp"
#include "trust/robust.hpp"

namespace svo::sim {

/// One arm of the resilience experiment.
struct AdversarialLoopConfig {
  /// The underlying closed loop (rounds, tasks, trust update rate, ...).
  ClosedLoopConfig loop;
  /// The attack every round's reported graph is perturbed with. An empty
  /// scenario leaves the loop untouched (and burns no randomness).
  trust::AttackScenario attack;
  /// Defenses for this arm; `defenses.enabled == false` runs the literal
  /// pipeline. `defenses.fresh` is overwritten every round with
  /// AttackInjector::fresh_identities(round, quarantine_rounds).
  trust::RobustOptions defenses;
  /// Hidden delivery reliability forced onto the attacker set: attackers
  /// promise but underdeliver, which is what makes believing their
  /// stuffed ballots costly in *realized* value.
  double attacker_theta = 0.15;
  /// Optional initial honest trust graph (must have size num_gsps).
  /// Default (nullopt): the complete graph at loop.initial_trust, exactly
  /// as run_closed_loop starts — required for the bit-identical
  /// equivalence guarantee. The benchmark instead seeds an informative
  /// graph (direct trust tracking the hidden thetas): the regime where
  /// reputation carries real signal and attacks have something to
  /// corrupt.
  std::optional<trust::TrustGraph> initial_trust_graph;
  /// How many rounds a re-entered identity counts as fresh.
  std::size_t quarantine_rounds = 3;
};

/// RoundRecord plus the adversarial telemetry.
struct AdversarialRoundRecord : RoundRecord {
  /// Whether the attack perturbed this round's reported graph.
  bool attack_active = false;
  /// Trust reports the injector rewrote this round.
  std::size_t attack_edges = 0;
  /// Fraction of the selected VO controlled by the adversary.
  double attacker_selected_fraction = 0.0;
  /// Normalized Kendall-tau distance between the all-GSP reputation
  /// ranking on the *honest* graph (literal pipeline) and the ranking
  /// this arm's pipeline computed on the *reported* graph — how far the
  /// attack displaced the ranking the mechanism acted on.
  double rank_corruption = 0.0;
};

/// Aggregate result of one arm.
struct AdversarialLoopResult {
  std::vector<AdversarialRoundRecord> rounds;
  double completion_rate = 0.0;      ///< completed / formed
  double mean_realized_share = 0.0;  ///< over formed rounds
  double mean_promised_share = 0.0;  ///< over formed rounds
  double mean_rank_corruption = 0.0;  ///< over all rounds
  /// The adversary's identities (strictly increasing; empty when the
  /// scenario is empty).
  std::vector<std::size_t> attackers;
};

/// Run one arm. Deterministic in `seed`, with the identical program /
/// execution / mechanism RNG streams as run_closed_loop, so arms that
/// share a seed face the same programs and the same execution luck —
/// differences are attributable to the attack and the defense alone.
/// `reliability` is the honest population; attacker thetas are overridden
/// by `config.attacker_theta` internally.
[[nodiscard]] AdversarialLoopResult run_adversarial_loop(
    MechanismKind kind, const ip::AssignmentSolver& solver,
    const core::MechanismConfig& mechanism_config,
    const ReliabilityModel& reliability, const AdversarialLoopConfig& config,
    std::uint64_t seed);

}  // namespace svo::sim
