#include "core/mechanism.hpp"

#include <algorithm>
#include <limits>

#include "game/payoff.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace svo::core {

VoFormationMechanism::VoFormationMechanism(const ip::AssignmentSolver& solver,
                                           MechanismConfig config)
    : solver_(solver), config_(config) {}

double estimate_reliability(const trust::TrustGraph& trust, std::size_t gsp,
                            double prior) {
  detail::require(gsp < trust.size(),
                  "estimate_reliability: GSP out of range");
  detail::require(prior >= 0.0 && prior <= 1.0,
                  "estimate_reliability: prior must be in [0,1]");
  double sum = 0.0;
  std::size_t observers = 0;
  for (std::size_t i = 0; i < trust.size(); ++i) {
    if (i == gsp) continue;
    const double u = trust.trust(i, gsp);
    if (u > 0.0) {
      sum += std::min(u, 1.0);
      ++observers;
    }
  }
  return observers == 0 ? prior : sum / static_cast<double>(observers);
}

MechanismResult VoFormationMechanism::run(const FormationRequest& request) const {
  const ip::AssignmentInstance& inst = request.instance;
  const trust::TrustGraph& trust = request.trust;
  util::Xoshiro256& rng = request.rng;
  const game::Coalition candidates =
      request.candidates.empty() ? game::Coalition::all(inst.num_gsps())
                                 : request.candidates;
  inst.validate();
  detail::require(trust.size() == inst.num_gsps(),
                  "VoFormationMechanism::run: trust graph size != num GSPs");
  const std::size_t m = inst.num_gsps();
  detail::require(!candidates.empty(),
                  "VoFormationMechanism::run: empty candidate pool");
  detail::require(candidates.is_subset_of(game::Coalition::all(m)),
                  "VoFormationMechanism::run: candidates exceed the GSP set");
  const util::WallTimer timer;
  obs::Span span("core.mechanism.run", "core");

  MechanismResult result;
  const trust::ReputationEngine engine(config_.reputation);

  // Global reputation over all GSPs: the metric basis for eq. (7) and the
  // selection rule of eq. (17).
  result.global_reputation = engine.compute(trust).scores;
  const auto avg_global = [&](game::Coalition c) {
    if (c.empty()) return 0.0;
    double acc = 0.0;
    for (const std::size_t i : c.members()) acc += result.global_reputation[i];
    return acc / static_cast<double>(c.size());
  };

  const game::VoValueFunction v(inst, solver_);

  // Algorithm 1 main loop, started from the candidate pool (the grand
  // coalition in the paper's setting). Under the Incremental policy
  // every iteration passes a warm hint (the first starts the kernel
  // chain) and hands the next one its evaluation plus the removed GSP,
  // so line 5 can repair and derive instead of solving from scratch;
  // references into the value-function cache are stable.
  game::Coalition c = candidates;
  std::vector<game::Coalition> feasible_list;  // L
  const bool warm = request.warm_start == WarmStartPolicy::Incremental;
  const game::CoalitionEvaluation* prev_eval = nullptr;
  std::size_t prev_removed = SIZE_MAX;
  while (!c.empty()) {
    obs::Span iter_span("core.mechanism.iteration", "core");
    if (iter_span.active()) {
      iter_span.arg("coalition_size", static_cast<double>(c.size()));
    }
    const game::CoalitionEvaluation& eval =  // line 5
        warm ? v.evaluate(c, game::WarmHint{prev_eval, prev_removed})
             : v.evaluate(c);
    if (iter_span.active()) {
      iter_span.arg("feasible", eval.feasible ? 1.0 : 0.0);
    }

    IterationRecord rec;
    rec.coalition = c;
    rec.feasible = eval.feasible;
    rec.stats = eval.stats;
    result.stats.accumulate(eval.stats);
    rec.avg_global_reputation = avg_global(c);
    if (eval.feasible) {
      rec.cost = eval.cost;
      rec.value = eval.value;
      rec.payoff_share = game::equal_share(eval.value, c.size());
      feasible_list.push_back(c);  // line 7
    }

    if (!eval.feasible) {  // flag stays TRUE -> loop terminates (line 13)
      result.journal.push_back(rec);
      break;
    }

    // Line 10: recompute reputation on the current VO's subgraph.
    const std::vector<std::size_t> members = c.members();
    const trust::ReputationResult rep = engine.compute(trust, members);
    rec.avg_local_reputation = rep.average;

    if (c.size() == 1) {
      // Removing the last member would leave the empty coalition, whose
      // mapping is trivially infeasible — the loop ends here.
      result.journal.push_back(rec);
      break;
    }

    // Lines 11-12: remove one GSP (rule differs per mechanism).
    const std::size_t pick = choose_removal(trust, members, rep.scores, rng);
    detail::require(pick < members.size(),
                    "choose_removal returned an out-of-range index");
    rec.removed_gsp = members[pick];
    result.journal.push_back(rec);
    prev_eval = &eval;
    prev_removed = members[pick];
    c = c.without(members[pick]);
  }

  // Lines 14-15: pick the best feasible VO from L.
  double best_key = -std::numeric_limits<double>::infinity();
  game::Coalition best;
  for (const game::Coalition cand : feasible_list) {
    const game::CoalitionEvaluation& eval = v.evaluate(cand);
    const double share = game::equal_share(eval.value, cand.size());
    double key = share;
    switch (config_.selection) {
      case SelectionRule::MaxIndividualPayoff:
        break;
      case SelectionRule::MaxPayoffReputationProduct:
        key = share * avg_global(cand);
        break;
      case SelectionRule::MaxExpectedIndividualPayoff: {
        // Expected value under all-or-nothing payment: the program pays
        // only if every member delivers.
        double p = 1.0;
        for (const std::size_t g : cand.members()) {
          p *= estimate_reliability(trust, g);
        }
        key = game::equal_share(p * inst.payment - eval.cost, cand.size());
        break;
      }
    }
    if (key > best_key) {
      best_key = key;
      best = cand;
    }
  }
  if (!best.empty()) {
    const game::CoalitionEvaluation& eval = v.evaluate(best);
    result.success = true;
    result.selected = best;
    result.mapping = eval.mapping;
    result.cost = eval.cost;
    result.value = eval.value;
    result.payoff_share = game::equal_share(eval.value, best.size());
    result.avg_global_reputation = avg_global(best);
  }
  result.elapsed_seconds = timer.seconds();
  if (span.active()) {
    span.arg("gsps", static_cast<double>(m));
    span.arg("iterations", static_cast<double>(result.journal.size()));
    span.arg("feasible_vos", static_cast<double>(feasible_list.size()));
    span.arg("success", result.success ? 1.0 : 0.0);
    span.arg("vo_size", static_cast<double>(result.selected.size()));
    span.arg("cost", result.cost);
    span.arg("warm", warm ? 1.0 : 0.0);
    obs::MetricRegistry& mreg = obs::Recorder::instance().metrics();
    mreg.counter("core.mechanism.runs").add();
    mreg.counter("core.mechanism.iterations").add(result.journal.size());
    if (!result.success) mreg.counter("core.mechanism.failures").add();
    mreg.histogram("core.mechanism.iters_per_run")
        .observe(static_cast<double>(result.journal.size()));
  }
  return result;
}

}  // namespace svo::core
