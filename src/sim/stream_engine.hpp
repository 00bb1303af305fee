/// \file stream_engine.hpp
/// Streaming grid economy: churn-tolerant virtual-time VO formation with
/// graceful degradation. The paper evaluates one-shot formation — one
/// program, all GSPs present, one mechanism run. This engine generalizes
/// that to the regime the introduction actually describes: programs
/// arrive continuously, several VOs are alive at once competing for the
/// same GSP pool, and providers join, leave, crash and rejoin while
/// formations and executions are in flight.
///
/// Everything happens in *virtual* time on des::Simulator, so runs are
/// bit-for-bit reproducible from the config: same seed, same event
/// timeline, wall clock never consulted. Two anchoring guarantees
/// (tests/sim/stream_engine_test.cpp):
///
///  1. Churn-off equivalence: with churn disabled, unbounded deadlines
///     and non-overlapping executions, every request's MechanismResult
///     is bit-identical (selected VO, mapping, cost, journal, RNG
///     consumption) to ExperimentRunner::run_pair on the same scenario —
///     the streaming economy is a strict superset of the one-shot sweep.
///  2. Replay determinism: the same StreamOptions produce the identical
///     StreamLogEntry timeline, event for event.
///
/// Graceful degradation under churn:
///  - crash mid-formation (commit window): the pending award is aborted,
///    reserved members are freed, and the request retries with
///    exponential backoff;
///  - crash mid-execution: the VO is repaired by re-running the
///    mechanism over the survivors plus the free live pool (costs of the
///    broken attempt are sunk, as in sim::execute_with_repair);
///  - graceful leave: a busy GSP drains its current VO before departing;
///  - admission control: requests are shed (or deferred) while the live
///    pool is below a floor;
///  - rejoin: the GSP re-enters through the PR 3 re-entry quarantine —
///    QuarantineLedger feeds RobustOptions::fresh for exactly the next
///    `quarantine_formations` formation runs (once per rejoin, never
///    re-armed by later formations).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "core/mechanism.hpp"
#include "obs/timeseries.hpp"
#include "sim/churn.hpp"
#include "sim/config.hpp"
#include "sim/scenario.hpp"

namespace svo::sim {

/// Terminal (or not-yet-terminal) state of one formation request.
enum class RequestOutcome {
  Pending,    ///< still in flight (never terminal after run())
  Completed,  ///< executed to completion with the original VO
  Repaired,   ///< executed to completion after >= 1 mid-execution repair
  Shed,       ///< rejected by admission control (pool below floor)
  TimedOut,   ///< deadline passed or retry budget exhausted
};

[[nodiscard]] const char* to_string(RequestOutcome outcome) noexcept;

/// Timeline event kinds, in the replayable event log.
enum class StreamEventKind {
  RequestArrival,
  AdmissionShed,        ///< shed: live pool below admission floor
  AdmissionDefer,       ///< deferred instead (defer_below_floor)
  FormationStart,       ///< a mechanism run begins for the request
  FormationInfeasible,  ///< mechanism found no feasible VO
  FormationAborted,     ///< pending member crashed in the commit window
  FormationCommit,      ///< VO committed; execution begins
  ExecutionCompleted,   ///< program delivered; VO dissolves
  RepairStarted,        ///< member crashed mid-execution; re-forming
  RepairFailed,         ///< no feasible VO over the survivors
  RequestTimedOut,      ///< deadline or retry budget exhausted
  RequestShed,          ///< terminal shed (admission or retry exhaustion)
  GspLeft,              ///< graceful departure took effect
  GspLeaveDeferred,     ///< departure deferred: GSP is draining its VO
  GspCrashed,
  GspRejoined,
};

[[nodiscard]] const char* to_string(StreamEventKind kind) noexcept;

/// One timeline entry. Virtual time only — replays compare these with
/// operator== (tests pin same-seed runs to identical timelines).
struct StreamLogEntry {
  double time = 0.0;
  StreamEventKind kind = StreamEventKind::RequestArrival;
  /// Request id, or SIZE_MAX for pure churn events.
  std::size_t request = SIZE_MAX;
  /// GSP id, or SIZE_MAX when not GSP-specific.
  std::size_t gsp = SIZE_MAX;

  friend bool operator==(const StreamLogEntry&,
                         const StreamLogEntry&) = default;
};

/// Configuration of one streaming run.
struct StreamOptions {
  /// Scenario source (trace, Table I, solver, mechanism config, seed).
  ExperimentConfig base;
  /// Which removal rule forms VOs.
  MechanismKind mechanism = MechanismKind::Tvof;
  /// GSP churn model; default (all-zero rates) = no churn.
  ChurnOptions churn;

  /// Where request workloads come from.
  enum class Ingest {
    /// Round-robin over base.task_sizes via ScenarioFactory: request id
    /// maps to (task_sizes[id % S], repetition id / S) — the exact
    /// scenarios of the one-shot sweep, enabling guarantee (1).
    SweepGrid,
    /// Memory-bounded chunked ingest (trace::AtlasJobStream): each
    /// request takes the next eligible long job from the synthetic
    /// stream — millions of jobs never materialize at once.
    StreamingAtlas,
  };
  Ingest ingest = Ingest::SweepGrid;

  /// Number of formation requests admitted into the run.
  std::size_t num_requests = 24;
  /// Virtual seconds between consecutive request arrivals (first at 0).
  double arrival_interval_seconds = 60.0;
  /// Per-request deadline, virtual seconds from arrival to commit;
  /// infinity = never times out.
  double formation_deadline_seconds = std::numeric_limits<double>::infinity();
  /// Virtual latency between a successful mechanism run and the VO
  /// commit — the window in which a member crash aborts the award.
  double formation_seconds = 1.0;
  /// Retry backoff: attempt k (1-based) retries after
  /// retry_backoff_seconds * multiplier^(k-1) virtual seconds.
  double retry_backoff_seconds = 30.0;
  double retry_backoff_multiplier = 2.0;
  /// Formation attempts per request (arrival + retries).
  std::size_t max_attempts = 8;
  /// Admission control: minimum live GSPs required to attempt formation.
  std::size_t admission_floor = 1;
  /// Below the floor: true = defer (retry later, consuming an attempt),
  /// false = shed immediately.
  bool defer_below_floor = false;
  /// Execution duration = instance deadline * this scale. Tiny values
  /// serialize executions between arrivals (used by guarantee (1)).
  double execution_time_scale = 1.0;
  /// Mid-execution repairs per request before it fails terminally.
  std::size_t max_repair_rounds = 3;
  /// Re-entry quarantine window, in formation runs (QuarantineLedger);
  /// only bites when base.mechanism.reputation.robust.enabled.
  std::size_t quarantine_formations = 3;
  /// StreamingAtlas: skip stream jobs wider than this many tasks
  /// (keeps per-request instances k x n bounded). 0 = no cap.
  std::size_t max_stream_tasks = 1024;
  /// Churn schedule horizon, virtual seconds; 0 = auto (twice the
  /// arrival span, so churn spans executions tailing past it).
  double churn_horizon_seconds = 0.0;

  /// Continuous telemetry (DESIGN.md §4j): > 0 closes a metrics window
  /// every this-many *virtual* seconds, advanced lazily from the event
  /// tap — no simulator events are scheduled, so the event timeline,
  /// horizon and results are bit-identical to a telemetry-off run, and
  /// same-seed replays produce identical window sequences and SLO
  /// verdicts. 0 (default) = off.
  double stats_window_seconds = 0.0;
  /// Window ring capacity (StreamResult::windows keeps the newest this
  /// many).
  std::size_t stats_window_capacity = 256;
  /// Objectives evaluated per closed window over the stream.* metrics
  /// (per-event-kind counters, stream.formation_latency_s histogram,
  /// stream.live/stream.busy gauges). Requires telemetry on.
  std::vector<obs::SloObjective> slos;

  /// Throws InvalidArgument (message "StreamOptions: ...") on invalid
  /// knobs: zero requests/interval, non-positive deadline, floor above
  /// the GSP pool size, multiplier < 1, negative scales, bad churn, or
  /// bad window options (obs::WindowSampler::validate).
  void validate() const;
};

/// Per-request result.
struct StreamRequestResult {
  std::size_t id = 0;
  std::size_t num_tasks = 0;
  RequestOutcome outcome = RequestOutcome::Pending;
  double arrival_time = 0.0;
  /// Virtual time the request reached a terminal state.
  double terminal_time = 0.0;
  /// Arrival -> commit latency, virtual seconds (committed requests).
  double formation_latency_seconds = 0.0;
  /// Mechanism attempts consumed (>= 1 once an attempt ran).
  std::size_t attempts = 0;
  /// Mid-execution repairs performed.
  std::size_t repair_rounds = 0;
  /// Realized value: committed VO's v(C) minus every sunk cost of
  /// crashed attempts; 0 unless Completed/Repaired.
  double realized_value = 0.0;
  /// Last committed formation (valid when Completed/Repaired).
  core::MechanismResult formation;
};

/// Full run result + the aggregates the bench gates.
struct StreamResult {
  std::vector<StreamRequestResult> requests;
  /// Replayable virtual-time event log.
  std::vector<StreamLogEntry> timeline;
  /// The deterministic churn schedule the run executed.
  std::vector<ChurnEvent> churn_schedule;

  std::size_t admitted = 0;
  std::size_t completed = 0;  ///< outcome Completed
  std::size_t repaired = 0;   ///< outcome Repaired
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  /// Admitted requests not in a terminal state after the run — the
  /// no-lost-requests invariant demands this is always 0.
  std::size_t lost = 0;

  /// (completed + repaired) / admitted; 1 when nothing was admitted.
  double completion_rate = 1.0;
  /// timed_out / admitted.
  double deadline_miss_rate = 0.0;
  double total_realized_value = 0.0;
  /// Arrival -> commit latency over committed requests, virtual seconds.
  double mean_formation_latency = 0.0;
  double p99_formation_latency = 0.0;
  /// Virtual time of the last executed event.
  double horizon = 0.0;
  /// Satellite-1 telemetry: rejoins recorded per GSP — each equals one
  /// quarantine activation, never more (exactly-once semantics).
  std::map<std::size_t, std::size_t> quarantine_activations;

  /// Closed telemetry windows (newest stats_window_capacity of them),
  /// virtual-time deltas of the stream.* metrics; empty with telemetry
  /// off. Deterministic: same-seed replays compare equal window for
  /// window (operator==).
  std::vector<obs::Window> windows;
  /// Final SLO verdicts after the last window; empty without
  /// objectives.
  std::vector<obs::SloStatus> slo_status;
};

/// The virtual-time streaming engine. Construction builds the scenario
/// source (for SweepGrid, the same trace the one-shot sweep uses);
/// run() is const and deterministic — repeated calls replay identically.
class StreamEngine {
 public:
  /// Validates `options`.
  explicit StreamEngine(StreamOptions options);

  [[nodiscard]] StreamResult run() const;

  [[nodiscard]] const StreamOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ScenarioFactory& scenarios() const noexcept {
    return factory_;
  }

 private:
  StreamOptions options_;
  ScenarioFactory factory_;
};

}  // namespace svo::sim
