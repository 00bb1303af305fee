/// \file slo.hpp
/// Declarative service-level objectives over telemetry windows
/// (DESIGN.md §4j). An SloObjective names a metric and a per-window
/// pass/fail predicate ("queue p99 < 20ms", "error rate < 1%",
/// "lost == 0"); SloTracker evaluates every objective against each
/// closed obs::Window, keeps error-budget accounts (fraction of
/// windows allowed to violate) and flags *breaches* with the standard
/// multi-window burn-rate rule: alert only when both a fast (recent)
/// and a slow (sustained) window agree the budget is burning faster
/// than allowed — a lone bad window is noise, a bad hour is an incident.
///
/// Evaluation is pure arithmetic over Window contents, so same-seed
/// virtual-time replays produce identical verdict sequences.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svo::obs {

class MetricRegistry;
struct Window;

enum class SloKind {
  /// Histogram quantile must stay below threshold (e.g. queue p99).
  QuantileBelow,
  /// counter(metric) / counter(denominator) must stay below threshold
  /// (e.g. error rate). A window with denominator delta 0 has no data
  /// and does not violate.
  RatioBelow,
  /// counter(metric) delta must be 0 (e.g. lost requests).
  CounterZero,
};

[[nodiscard]] std::string to_string(SloKind kind);

/// One objective. `validate()` throws util errors on nonsense
/// (empty names, thresholds/budgets out of range, zero window spans).
struct SloObjective {
  std::string name;         ///< identifier, used in surfaced metric names
  SloKind kind = SloKind::QuantileBelow;
  std::string metric;       ///< histogram (QuantileBelow) or counter name
  std::string denominator;  ///< RatioBelow only: total-events counter
  double quantile = 0.99;   ///< QuantileBelow only, in [0,1]
  double threshold = 0.0;   ///< violation when observed >= threshold
  /// Fraction of windows allowed to violate before the budget is spent.
  double error_budget = 0.01;
  /// Burn-rate spans, in windows: fast catches sharp regressions, slow
  /// confirms they are sustained.
  std::size_t fast_windows = 3;
  std::size_t slow_windows = 12;
  /// Breach when both burn rates reach this multiple of the budgeted
  /// rate (1.0 = burning exactly as fast as the budget allows).
  double burn_threshold = 1.0;

  void validate() const;
};

/// Rolling verdict state for one objective.
struct SloStatus {
  std::string name;
  std::uint64_t windows = 0;      ///< windows evaluated
  std::uint64_t violations = 0;   ///< windows that violated
  bool violated_last = false;     ///< verdict of the newest window
  /// violations / (windows * error_budget): >= 1 means the whole-run
  /// budget is spent.
  double budget_consumed = 0.0;
  double fast_burn = 0.0;         ///< burn rate over the fast span
  double slow_burn = 0.0;         ///< burn rate over the slow span
  bool breached = false;          ///< both burn rates >= burn_threshold
  std::uint64_t breach_onsets = 0;  ///< false→true breach transitions

  friend bool operator==(const SloStatus&, const SloStatus&) = default;
};

/// Evaluates a fixed set of objectives window by window. Optionally
/// *surfaces* the verdicts back into a registry as ordinary metrics
/// (`slo.<name>.violations`, `.breaches` counters; `.violated`,
/// `.budget_consumed`, `.fast_burn`, `.slow_burn`, `.breached` gauges)
/// so exporters and bench reports see SLO state without knowing the
/// tracker exists. Not thread-safe; callers serialize evaluate().
class SloTracker {
 public:
  /// Validates every objective. `surface` may be null (no surfacing);
  /// it must outlive the tracker. Surfacing into the registry the
  /// windows are sampled from is safe — slo.* metrics then show up in
  /// the *next* window, never their own.
  explicit SloTracker(std::vector<SloObjective> objectives,
                      MetricRegistry* surface = nullptr);

  /// Evaluate every objective against one closed window, in objective
  /// order. Returns the refreshed statuses (also kept internally).
  const std::vector<SloStatus>& evaluate(const Window& window);

  [[nodiscard]] const std::vector<SloObjective>& objectives() const noexcept {
    return objectives_;
  }
  [[nodiscard]] const std::vector<SloStatus>& status() const noexcept {
    return status_;
  }
  /// Any objective currently in breach.
  [[nodiscard]] bool any_breached() const noexcept;

 private:
  std::vector<SloObjective> objectives_;
  std::vector<SloStatus> status_;
  /// Per-objective ring of recent verdicts (true = violated), newest
  /// last; sized to the objective's slow span.
  std::vector<std::vector<bool>> recent_;
  MetricRegistry* surface_;
};

}  // namespace svo::obs
