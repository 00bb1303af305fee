/// \file runner.hpp
/// Sweep runner: executes TVOF (and optionally RVOF) over all configured
/// program sizes and repetitions, aggregating exactly the series the
/// paper's Figures 1 (payoff), 2 (VO size), 3 (average reputation) and
/// 9 (execution time) plot.
#pragma once

#include <functional>

#include "core/mechanism.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"

namespace svo::sim {

/// Aggregates over the repetitions of one (mechanism, size) cell.
struct MechanismStats {
  util::RunningStats payoff;          ///< individual payoff (Fig. 1)
  util::RunningStats vo_size;         ///< final VO size (Fig. 2)
  util::RunningStats avg_reputation;  ///< eq. (7) of final VO (Fig. 3)
  util::RunningStats exec_seconds;    ///< mechanism wall clock (Fig. 9)
  std::size_t failures = 0;           ///< runs with no feasible VO at all
};

/// One sweep point = one program size.
struct SweepPoint {
  std::size_t num_tasks = 0;
  MechanismStats tvof;
  MechanismStats rvof;
};

/// Full sweep result.
struct SweepResult {
  std::vector<SweepPoint> points;
};

/// Optional per-run observer (size, repetition, mechanism name, result).
using RunObserver = std::function<void(
    std::size_t, std::size_t, const std::string&, const core::MechanismResult&)>;

/// Runs the paper's sweep protocol.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig cfg);

  /// Execute all (size x repetition) cells. Deterministic in the config
  /// seed regardless of `cfg.parallel`.
  [[nodiscard]] SweepResult run_sweep(const RunObserver& observer = {}) const;

  /// Run both mechanisms on a single prepared scenario: one repetition
  /// of run_sweep, which the stream engine's churn-off equivalence is
  /// checked against.
  struct PairResult {
    core::MechanismResult tvof;
    core::MechanismResult rvof;
  };
  [[nodiscard]] PairResult run_pair(const Scenario& scenario) const;

  [[nodiscard]] const ScenarioFactory& scenarios() const noexcept {
    return factory_;
  }
  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return factory_.config();
  }

 private:
  ScenarioFactory factory_;
};

}  // namespace svo::sim
