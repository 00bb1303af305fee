#include "sim/scenario.hpp"

#include "trace/programs.hpp"

namespace svo::sim {

namespace {

/// Stable substream id for a (num_tasks, repetition) pair.
std::uint64_t scenario_stream(std::size_t num_tasks, std::size_t repetition) {
  return (static_cast<std::uint64_t>(num_tasks) << 20) ^
         static_cast<std::uint64_t>(repetition);
}

}  // namespace

namespace {

trace::Trace build_trace(const ExperimentConfig& cfg) {
  const std::uint64_t seed = util::derive_seed(cfg.seed, /*stream=*/0xA71A5);
  switch (cfg.trace_model) {
    case ExperimentConfig::TraceModel::LublinFeitelson:
      return trace::generate_lublin(cfg.lublin, seed);
    case ExperimentConfig::TraceModel::AtlasLike:
      break;
  }
  return trace::generate_atlas_like(cfg.trace, seed);
}

}  // namespace

ScenarioFactory::ScenarioFactory(ExperimentConfig cfg)
    : cfg_(std::move(cfg)), trace_(build_trace(cfg_)) {
  for (std::size_t i = 0; i < trace_.jobs.size(); ++i) {
    const trace::SwfJob& j = trace_.jobs[i];
    if (trace::is_eligible(j, cfg_.gen.params.min_job_runtime)) {
      eligible_by_size_[j.allocated_processors].push_back(i);
    }
  }
}

Scenario ScenarioFactory::make(std::size_t num_tasks,
                               std::size_t repetition) const {
  util::Xoshiro256 rng(util::derive_seed(
      cfg_.seed, scenario_stream(num_tasks, repetition)));

  const auto pool =
      eligible_by_size_.find(static_cast<std::int64_t>(num_tasks));
  detail::require(pool != eligible_by_size_.end(),
                  "ScenarioFactory::make: no eligible trace job of this size");
  const std::vector<trace::ProgramSpec> programs = trace::sample_programs(
      trace_.jobs, pool->second, 1, rng, cfg_.gen.params.min_job_runtime);

  Scenario s;
  s.instance = workload::generate_instance(programs.front(), cfg_.gen, rng);
  s.trust = trust::random_trust_graph(
      cfg_.gen.params.num_gsps, cfg_.gen.params.trust_edge_probability, rng);
  s.tvof_seed = util::derive_seed(cfg_.seed,
                                  scenario_stream(num_tasks, repetition) ^
                                      0x7F0F'0000'0000ULL);
  s.rvof_seed = util::derive_seed(cfg_.seed,
                                  scenario_stream(num_tasks, repetition) ^
                                      0x4F0F'0000'0000ULL);
  return s;
}

}  // namespace svo::sim
