/// \file config.hpp
/// Experiment configuration: the paper's full protocol (Section IV-A) in
/// one struct, every knob defaulted to Table I / the text.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mechanism.hpp"
#include "ip/bnb.hpp"
#include "trace/atlas_synth.hpp"
#include "trace/lublin.hpp"
#include "workload/instance_gen.hpp"

namespace svo::sim {

/// Which formation mechanism a stream or an adversarial arm runs.
enum class MechanismKind {
  Tvof,
  Rvof,
};

/// The mechanism of `kind` over `solver` (which must outlive it). The
/// stream engine and the resilience harness build one per formation
/// run, so defense state like the quarantine freshness list can vary
/// run to run.
[[nodiscard]] std::unique_ptr<core::VoFormationMechanism> make_mechanism(
    MechanismKind kind, const ip::AssignmentSolver& solver,
    const core::MechanismConfig& config);

/// Configuration of a sweep experiment (Figs. 1, 2, 3, 9) and the
/// scenario source for the per-program figures (Figs. 4-8).
struct ExperimentConfig {
  /// Table I parameters + Braun cost generation + feasibility policy.
  workload::InstanceGenOptions gen;
  /// Which synthetic workload family drives the scenarios.
  enum class TraceModel {
    AtlasLike,         ///< statistical stand-in for LLNL-Atlas (default)
    LublinFeitelson,   ///< the standard citable batch model
  };
  TraceModel trace_model = TraceModel::AtlasLike;
  /// Synthetic-trace options (statistical stand-in for LLNL-Atlas).
  trace::AtlasSynthOptions trace;
  /// Options for the Lublin-Feitelson family (used when selected).
  trace::LublinOptions lublin;
  /// Program sizes evaluated (paper: six sizes, 256..8192 tasks).
  std::vector<std::size_t> task_sizes{256, 512, 1024, 2048, 4096, 8192};
  /// Repetitions per size (paper: "a series of ten experiments").
  std::size_t repetitions = 10;
  /// Root seed; every scenario and mechanism stream derives from it.
  std::uint64_t seed = 2012'0910;
  /// IP-B&B budget shared by both mechanisms.
  ip::BnbOptions solver;
  /// Reputation + selection-rule configuration.
  core::MechanismConfig mechanism;
  /// Run the RVOF baseline next to TVOF on identical instances.
  bool run_rvof = true;
  /// Run repetitions concurrently on the global thread pool.
  bool parallel = true;
};

}  // namespace svo::sim
