#include "sim/adversary.hpp"

#include <memory>
#include <optional>

namespace svo::sim {

AdversarialLoopResult run_adversarial_loop(
    MechanismKind kind, const ip::AssignmentSolver& solver,
    const core::MechanismConfig& mechanism_config,
    const ReliabilityModel& reliability, const AdversarialLoopConfig& config,
    std::uint64_t seed) {
  const std::size_t m = config.loop.gen.params.num_gsps;
  detail::require(reliability.size() == m,
                  "run_adversarial_loop: reliability size != num_gsps");
  detail::require(config.loop.rounds > 0, "run_adversarial_loop: rounds == 0");
  detail::require(config.loop.initial_trust > 0.0,
                  "run_adversarial_loop: initial_trust must be > 0");
  detail::require(config.loop.deadline_slack >= 1.0,
                  "run_adversarial_loop: deadline_slack must be >= 1");
  detail::require(config.attacker_theta >= 0.0 && config.attacker_theta <= 1.0,
                  "run_adversarial_loop: attacker_theta must be in [0,1]");
  config.defenses.validate();

  // The injector exists only for a non-empty scenario; the empty case
  // must stay byte-for-byte the plain closed loop.
  std::optional<trust::AttackInjector> injector;
  if (!config.attack.empty()) injector.emplace(config.attack, m);

  // Attackers promise like everyone else but deliver at attacker_theta.
  std::vector<double> thetas = reliability.thetas();
  if (injector) {
    for (const std::size_t a : injector->attackers()) {
      thetas[a] = config.attacker_theta;
    }
  }
  const ReliabilityModel hidden(std::move(thetas));

  // Honest graph: evolves only through genuinely observed interactions —
  // attacks never touch it. Defaults to run_closed_loop's complete graph
  // at initial_trust.
  trust::TrustGraph honest(m);
  if (config.initial_trust_graph) {
    detail::require(config.initial_trust_graph->size() == m,
                    "run_adversarial_loop: initial trust graph size != "
                    "num_gsps");
    honest = *config.initial_trust_graph;
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        if (i != j) honest.set_trust(i, j, config.loop.initial_trust);
      }
    }
  }

  // Identical streams to run_closed_loop: same seed, same programs, same
  // execution luck across arms.
  util::Xoshiro256 program_rng(util::derive_seed(seed, 1));
  util::Xoshiro256 execution_rng(util::derive_seed(seed, 2));
  util::Xoshiro256 mechanism_rng(util::derive_seed(seed, 3));

  // Reference ranking: the literal pipeline on the honest graph.
  core::MechanismConfig literal_config = mechanism_config;
  literal_config.reputation.robust = trust::RobustOptions{};
  const trust::ReputationEngine literal_engine(literal_config.reputation);

  AdversarialLoopResult result;
  result.rounds.reserve(config.loop.rounds);
  if (injector) result.attackers = injector->attackers();
  std::size_t formed = 0;
  std::size_t completed = 0;
  double sum_realized = 0.0;
  double sum_promised = 0.0;
  double sum_corruption = 0.0;

  for (std::size_t round = 0; round < config.loop.rounds; ++round) {
    trace::ProgramSpec program;
    program.num_tasks = config.loop.num_tasks;
    program.mean_task_runtime =
        program_rng.uniform(config.loop.runtime_lo, config.loop.runtime_hi);
    workload::GridInstance grid =
        workload::generate_instance(program, config.loop.gen, program_rng);
    grid.assignment.deadline *= config.loop.deadline_slack;

    // The adversary rewrites this round's *reports*, never the honest
    // history — attacks do not compound across rounds.
    trust::TrustGraph reported = honest;
    AdversarialRoundRecord rec;
    rec.round = round;
    if (injector) {
      const trust::AttackRound ar = injector->apply(reported, round);
      rec.attack_active = ar.active;
      rec.attack_edges = ar.edges_touched;
    }

    // This arm's mechanism, with this round's freshness list installed.
    core::MechanismConfig arm_config = mechanism_config;
    arm_config.reputation.robust = config.defenses;
    if (config.defenses.enabled) {
      arm_config.reputation.robust.fresh =
          injector ? injector->fresh_identities(round, config.quarantine_rounds)
                   : std::vector<std::size_t>{};
    }
    const std::unique_ptr<core::VoFormationMechanism> mechanism =
        make_mechanism(kind, solver, arm_config);

    rec.rank_corruption = trust::rank_corruption(
        literal_engine.compute(honest).scores,
        trust::ReputationEngine(arm_config.reputation)
            .compute(reported)
            .scores);
    sum_corruption += rec.rank_corruption;

    const core::MechanismResult r = mechanism->run(
        core::FormationRequest{grid.assignment, reported, mechanism_rng});
    if (r.success) {
      rec.formed = true;
      ++formed;
      rec.vo = r.selected;
      rec.promised_share = r.payoff_share;
      std::size_t unreliable = 0;
      std::size_t adversarial = 0;
      for (const std::size_t g : r.selected.members()) {
        if (hidden.theta(g) < 0.5) ++unreliable;
        if (injector && injector->is_attacker(g)) ++adversarial;
      }
      rec.unreliable_member_fraction =
          static_cast<double>(unreliable) /
          static_cast<double>(r.selected.size());
      rec.attacker_selected_fraction =
          static_cast<double>(adversarial) /
          static_cast<double>(r.selected.size());

      const ExecutionOutcome outcome = simulate_execution(
          grid.assignment, r.mapping, r.selected, hidden, execution_rng);
      rec.completed = outcome.completed;
      rec.realized_share = outcome.realized_share;
      rec.delivery_rate = outcome.delivery_rate;
      completed += outcome.completed ? 1 : 0;
      sum_realized += outcome.realized_share;
      sum_promised += rec.promised_share;

      update_trust_from_outcome(honest, r.selected, outcome,
                                config.loop.trust_update_rate);
    }
    result.rounds.push_back(std::move(rec));
  }

  if (formed > 0) {
    result.completion_rate =
        static_cast<double>(completed) / static_cast<double>(formed);
    result.mean_realized_share = sum_realized / static_cast<double>(formed);
    result.mean_promised_share = sum_promised / static_cast<double>(formed);
  }
  result.mean_rank_corruption =
      sum_corruption / static_cast<double>(config.loop.rounds);
  return result;
}

}  // namespace svo::sim
