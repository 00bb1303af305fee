/// \file scenario.hpp
/// Scenario construction: trace -> program -> Table I instance + trust
/// graph, deterministically keyed by (root seed, task count, repetition).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/config.hpp"
#include "trust/trust_graph.hpp"

namespace svo::sim {

/// Everything one mechanism run consumes.
struct Scenario {
  workload::GridInstance instance;
  trust::TrustGraph trust{0};
  /// Independent RNG streams for each mechanism's tie-breaking, derived
  /// from the scenario key so TVOF and RVOF never share draws.
  std::uint64_t tvof_seed = 0;
  std::uint64_t rvof_seed = 0;
};

/// Generates scenarios against one synthetic trace (built once; the
/// trace is the expensive immutable input, exactly like the archive log
/// the paper loads once). The construction also indexes the trace's
/// eligible jobs by size; neither changes afterwards, so make() may run
/// concurrently.
class ScenarioFactory {
 public:
  explicit ScenarioFactory(ExperimentConfig cfg);

  /// Build the scenario for (num_tasks, repetition). Deterministic:
  /// the same key always yields the same scenario. Throws InvalidArgument
  /// when the trace lacks an eligible job of that size. Thread-safe.
  [[nodiscard]] Scenario make(std::size_t num_tasks,
                              std::size_t repetition) const;

  [[nodiscard]] const trace::Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return cfg_; }

 private:
  ExperimentConfig cfg_;
  trace::Trace trace_;
  /// Per program size, the indices into trace_.jobs of its eligible
  /// jobs (trace::is_eligible), in trace order. Indices rather than
  /// pointers keep a copied factory valid.
  std::map<std::int64_t, std::vector<std::size_t>> eligible_by_size_;
};

}  // namespace svo::sim
