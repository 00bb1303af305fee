/// \file protocol.hpp
/// The trusted-party protocol behind Algorithm 1, made explicit — and
/// fault-tolerant. The paper states the mechanism "is executed by a
/// trusted party that also facilitates the communication among VOs/GSPs"
/// but leaves the exchange implicit; this module simulates it on the
/// des/ layer:
///
///   1. the trusted party (TP) broadcasts a call-for-participation;
///   2. each GSP reports its direct-trust row and its cost/time columns
///      (8m + 16n bytes — the data Algorithm 1 needs);
///   3. the TP runs TVOF locally (the *measured* compute time of the
///      actual mechanism run advances the simulated clock);
///   4. removed GSPs receive release notices; final members receive
///      award messages carrying their task lists and acknowledge.
///
/// Because real grids drop messages and real providers crash, the TP is
/// hardened (see DESIGN.md "Fault model & recovery"):
///
///   * each phase is guarded by a timeout with capped exponential
///     backoff; unanswered CFPs and un-acknowledged awards are re-sent;
///   * once a configurable quorum of reports has arrived the TP proceeds
///     with the responsive subset instead of hanging (degraded mode);
///   * a member that never acknowledges its award is declared failed and
///     the TP *repairs* the VO: formation is re-run over the survivors,
///     reassigning every task, for up to max_repair_rounds rounds.
///
/// With all fault knobs at zero the hardened protocol produces
/// bit-identical results to the lossless protocol: timers that never
/// take effect consume no randomness and the message sequence is
/// unchanged.
///
/// The result couples the ordinary MechanismResult with protocol
/// metrics: message count, bytes on the wire, end-to-end latency, and
/// the fault/recovery counters a real grid operator would monitor.
#pragma once

#include "core/mechanism.hpp"
#include "des/fault.hpp"
#include "des/network.hpp"

namespace svo::sim {

/// Protocol tuning knobs.
struct ProtocolOptions {
  des::LatencyModel latency;
  /// Local processing delay before a GSP answers a CFP, seconds.
  double gsp_processing_seconds = 2e-3;
  /// Fixed per-message envelope overhead, bytes.
  std::size_t envelope_bytes = 64;
  /// Seed of the network jitter stream.
  std::uint64_t network_seed = 0xBEEF;

  /// Fault model applied to every message (all-zero: lossless network).
  des::FaultConfig faults;
  /// Report-phase timeout, seconds. When it fires the TP proceeds with
  /// the responsive subset (if quorum is met) or re-sends CFPs to the
  /// silent GSPs. 0 disables phase timers entirely — only valid with
  /// faults disabled, since a lossy network could then hang the TP.
  double report_timeout_seconds = 0.5;
  /// Award-phase timeout, seconds (same contract as above).
  double award_timeout_seconds = 0.25;
  /// Timeout growth per retry: attempt k waits timeout * backoff^k.
  double backoff_multiplier = 2.0;
  /// Re-send attempts per phase before degrading / declaring failure.
  std::size_t max_retries = 4;
  /// Fraction of the m reports required to run formation in degraded
  /// mode once the report timeout fires (at least one report always).
  double quorum_fraction = 0.5;
  /// VO repair rounds after an awarded member fails to acknowledge.
  std::size_t max_repair_rounds = 3;

  /// Throws InvalidArgument on out-of-range fields, and when faults are
  /// enabled while the phase timers are disabled (a hang waiting to
  /// happen).
  void validate() const;
};

/// Wire/latency accounting of one protocol execution.
struct ProtocolMetrics {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  /// Simulated time from CFP broadcast to the last award acknowledgment.
  double completion_seconds = 0.0;
  /// Simulated time spent collecting the reports (phase 2).
  double report_phase_seconds = 0.0;

  // --- Fault/recovery counters (all zero on a clean, lossless run) ---
  /// Messages re-sent after a timeout (CFP and AWARD re-sends).
  std::size_t retries = 0;
  /// Phase timers that fired and took effect (stale timers don't count).
  std::size_t timeouts_fired = 0;
  /// Messages the fault injector destroyed (link drops + crash drops).
  std::size_t drops_observed = 0;
  /// VO repair rounds executed after member failures.
  std::size_t repair_rounds = 0;
  /// True when formation ran on a strict subset of the GSPs (quorum
  /// degradation) instead of all m reports.
  bool degraded_quorum = false;
  /// True when the protocol could not hand over a working VO: quorum
  /// never reached, formation infeasible, or repair rounds exhausted.
  /// Never silent — when set, mechanism.success is false as well.
  bool formation_failed = false;
};

/// Combined outcome.
struct DistributedRunResult {
  core::MechanismResult mechanism;
  ProtocolMetrics protocol;
};

/// Crash windows in FaultConfig address *network nodes*: the trusted
/// party occupies node 0 and GSP g occupies node g + 1. This helper maps
/// a GSP-indexed schedule (e.g. from des::random_crash_windows over m
/// GSPs) onto protocol node ids.
[[nodiscard]] std::vector<des::CrashWindow> gsp_crash_schedule(
    std::vector<des::CrashWindow> gsp_windows);

/// Execute `mechanism` under the trusted-party protocol. With faults
/// disabled this is semantically identical to mechanism.run(
/// FormationRequest{inst, trust, rng}) — the protocol layer adds
/// measurement, never changes the
/// decision. Under faults the decision is made over the responsive /
/// surviving subset as described above. Deterministic in (inputs, rng,
/// options.network_seed, options.faults.seed).
[[nodiscard]] DistributedRunResult run_distributed(
    const core::VoFormationMechanism& mechanism,
    const ip::AssignmentInstance& inst, const trust::TrustGraph& trust,
    util::Xoshiro256& rng, const ProtocolOptions& options = {});

}  // namespace svo::sim
