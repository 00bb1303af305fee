/// \file service.hpp
/// Formation-as-a-service: a long-running, sharded, batched asynchronous
/// request engine over the synchronous core mechanism (DESIGN.md §4g),
/// chaos-hardened against its own failure modes (§4h).
///
/// The paper forms one VO per call; the north-star system is a
/// multi-tenant service admitting millions of queued formation requests.
/// svc::FormationService is that service core:
///
///   submit(FormationRequest,  ──► bounded per-shard queue ──► shard tick
///          SubmitOptions)            (admission control)    (drains ≤ B,
///        (RequestHandle)                                     runs solver)
///
///  - N independent *shards*, partitioned per-market / per-trust-domain
///    by a deterministic routing key (default: ticket id modulo N), each
///    with its own bounded submission queue, accounting state and stable
///    obs metric references. A shard drains its queue by (priority desc,
///    deadline asc, admission order), one batch ("tick") at a time —
///    shard-internal execution is single-threaded by construction, so
///    per-shard order is a guarantee, not a scheduling accident. With
///    every request at default priority/deadline the order is exactly
///    admission order (the PR 7 FIFO).
///  - Ticks are message-driven tasks on a util::ThreadPool (the oneflow
///    vm-scheduler idiom: explicit object lifetimes, no long-running
///    blocked threads): enqueueing into an idle shard schedules exactly
///    one tick; a tick drains up to ServiceOptions::batch_size tickets,
///    runs them, and reschedules itself only while work remains, so a
///    pool smaller than the shard count still makes progress everywhere.
///  - Batched admission control: a full shard queue sheds (terminal
///    Shed) or defers (terminal Deferred — "retry later", the caller
///    owns the backoff) according to ServiceOptions::overload. Both are
///    decided at submit time, before any solver work. Internal retries
///    of already-admitted tickets bypass the capacity check: admitted
///    work is never lost to its own backoff.
///
/// Degradation contract (§4h): submissions carry an optional deadline,
/// priority and retry budget (SubmitOptions). A request still
/// queued past its deadline terminates as DeadlineExceeded *before* any
/// solve. A failed solve — injected by a FaultPlan or a genuine throw —
/// retries with capped exponential backoff up to the request's budget,
/// each attempt from the pristine admission-time RNG snapshot; an
/// exhausted budget terminates as Failed with the error preserved. A
/// killed shard (FaultPlan tick abort) is detected and restarted with
/// its queue intact. Every admitted ticket reaches a terminal state —
/// across shard crashes, solver throws and stalls — and the retry /
/// expiry / restart traffic is accounted in the service and per-shard
/// obs metrics.
///
/// Determinism contract: a ticket's outcome is a pure function of its
/// request (instance, trust, RNG *snapshot*, candidates, policy) and the
/// fault plan — the service copies the caller's RNG state at submit and
/// never advances the caller's generator — and routing is a pure
/// function of (ticket id, routing key, shard count). Faults are keyed
/// by ticket id, so same-seed chaotic replays produce bit-identical
/// per-ticket results (state, attempts, RNG probe) at any shard/thread
/// count; with the plan empty the service is bit-identical to the
/// un-chaosed PR 7 behaviour, and a single-shard service is bit-identical
/// to calling core::VoFormationMechanism::run(FormationRequest) directly
/// (tests/svc pin all three, RNG probe included).
///
/// Lifetime: the referenced mechanism, instance and trust graph must
/// outlive every ticket that uses them. The service owns its pool;
/// destruction resumes (if paused), drains all admitted tickets, and
/// joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mechanism.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/fault_plan.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace svo::svc {

/// Lifecycle of one submitted request. Terminal states are exactly
/// {Done, Cancelled, Shed, Deferred, Failed, DeadlineExceeded};
/// Queued/Running are transient.
enum class TicketState : int {
  Queued,     ///< admitted, waiting in its shard's queue (or in backoff)
  Running,    ///< a shard tick is executing the mechanism
  Done,       ///< mechanism ran; RequestOutcome::result is valid
  Cancelled,  ///< cancel() won before dispatch — the solver never ran
  Shed,       ///< rejected at submit: shard queue full (overload=Shed)
  Deferred,   ///< rejected at submit, retryable (overload=Defer)
  Failed,     ///< every attempt threw; RequestOutcome::error says why
  DeadlineExceeded,  ///< expired in queue before a solve could start
};

[[nodiscard]] const char* to_string(TicketState state) noexcept;
[[nodiscard]] constexpr bool is_terminal(TicketState s) noexcept {
  return s != TicketState::Queued && s != TicketState::Running;
}

/// What to do with a submission when its shard's queue is at capacity.
enum class OverloadPolicy {
  Shed,   ///< reject terminally; the request is dropped
  Defer,  ///< reject retryably; the caller re-submits after backoff
};

/// Service configuration. Mirrors sim::StreamOptions::validate() style:
/// construction of a FormationService validates and throws
/// InvalidArgument ("ServiceOptions: ...") on nonsense.
struct ServiceOptions {
  /// Upper bound accepted for SubmitOptions::max_retries — bounds the
  /// worst-case backoff chain of a poisoned request.
  static constexpr std::uint32_t kMaxRetryBudget = 32;

  /// Independent mechanism shards (per-market / per-trust-domain
  /// partitions). 1 = the bit-identical-to-direct-run mode.
  std::size_t shards = 1;
  /// Bounded submission-queue capacity *per shard*; admission control
  /// sheds/defers beyond it (internal retries are exempt).
  std::size_t queue_capacity = 256;
  /// Tickets drained per shard tick. A tick runs its whole batch before
  /// yielding the pool thread, amortizing scheduling over B solves.
  std::size_t batch_size = 16;
  /// Worker threads in the service's pool; 0 = one per shard.
  std::size_t threads = 0;
  /// Full-queue behaviour.
  OverloadPolicy overload = OverloadPolicy::Shed;
  /// Construct with ticks suspended: submissions queue (and shed/defer
  /// exactly at capacity) but nothing dispatches until resume(). Gives
  /// tests and benches deterministic queue-full and cancel-before-
  /// dispatch setups; production services leave this false.
  bool start_paused = false;
  /// Backoff before retry attempt k (1-based re-attempt): base * 2^(k-1)
  /// wall seconds, capped below.
  double retry_backoff_base_seconds = 0.0005;
  /// Upper bound on any single retry backoff.
  double retry_backoff_cap_seconds = 0.050;
  /// Deterministic chaos injection (fault_plan.hpp). Empty = no faults,
  /// the bit-identical-to-PR 7 regime.
  FaultPlan faults;

  /// Continuous telemetry (DESIGN.md §4j): > 0 closes a metrics window
  /// every this-many wall seconds on the service clock, sampled from
  /// the tick loop. 0 (default) = telemetry off — the sampler is never
  /// constructed, the hot path gains zero atomics, and outcomes/RNG
  /// probes are bit-identical to a telemetry-on run (tests pin this).
  double stats_window_seconds = 0.0;
  /// Window ring capacity (oldest evicted beyond it).
  std::size_t stats_window_capacity = 64;
  /// Objectives evaluated against every closed window; verdicts are
  /// surfaced as slo.* metrics in the service registry. Requires
  /// telemetry on when non-empty.
  std::vector<obs::SloObjective> slos;
  /// Non-empty: append every closed window to this file as JSONL
  /// (obs::write_window_jsonl). Requires telemetry on.
  std::string stats_jsonl_path;

  /// Throws InvalidArgument on: zero shards, zero queue capacity, zero
  /// batch size, batch size above queue capacity, negative / non-finite
  /// backoff, a backoff cap below the base, an invalid fault plan, a
  /// negative / non-finite stats window, a zero window capacity, SLOs
  /// or a JSONL path with telemetry off, or an invalid SLO objective.
  void validate() const;
};

/// How the service queues, orders, expires, retries and routes one
/// request (DESIGN.md §4h); the mechanism never sees it.
struct SubmitOptions {
  /// Relative deadline, wall seconds from service admission; infinity =
  /// none. A request still queued past its deadline terminates as
  /// DeadlineExceeded *before* any solve; 0 expires at first dispatch
  /// (the deterministic-expiry idiom tests and benches rely on).
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Drain order within a shard: higher priority first, then earlier
  /// deadline (EDF), then admission order.
  std::int32_t priority = 0;
  /// Retry budget on a failed solve: up to this many re-attempts with
  /// capped exponential backoff (ServiceOptions::retry_backoff_*).
  std::uint32_t max_retries = 0;
  /// Shard partition key (per-market / per-trust-domain): the shard is
  /// routing_key % shards; SIZE_MAX routes by ticket id.
  std::size_t routing_key = SIZE_MAX;
};

/// Terminal record of one ticket.
struct RequestOutcome {
  std::uint64_t ticket = 0;
  std::size_t shard = 0;
  TicketState state = TicketState::Queued;
  /// Mechanism outcome; meaningful only when state == Done.
  core::MechanismResult result;
  /// One draw from the ticket's RNG *after* the run — the determinism
  /// probe: equals rng() after an equivalent direct run() on a generator
  /// seeded identically. 0 unless state == Done.
  std::uint64_t rng_probe = 0;
  /// Solve attempts executed (1 + retries taken); 0 when the solver
  /// never ran (cancelled / shed / deferred / expired before dispatch).
  std::uint32_t attempts = 0;
  /// 1-based service-wide dispatch order of the first solve attempt; 0
  /// when the solver never ran. Deterministic for a single-shard
  /// service (drain-order observability); diagnostic across shards.
  std::uint64_t dispatch_seq = 0;
  /// Failure description (meaningful when state == Failed).
  std::string error;
  /// Admission -> final dispatch wall seconds, retry backoff included
  /// (0 for shed/deferred tickets).
  double queue_seconds = 0.0;
  /// Dispatch -> completion wall seconds (solver time; Done only).
  double solve_seconds = 0.0;
};

namespace detail {
struct Ticket;
}  // namespace detail

/// Caller's view of one submitted request: a ticket id plus poll / wait
/// / cancel. Copyable (shared state); all members are thread-safe.
class RequestHandle {
 public:
  /// Service-unique ticket id, dense in submission order.
  [[nodiscard]] std::uint64_t id() const noexcept;
  /// Shard the ticket routed to.
  [[nodiscard]] std::size_t shard() const noexcept;
  /// Current state, without blocking.
  [[nodiscard]] TicketState poll() const noexcept;
  /// True once poll() would return a terminal state.
  [[nodiscard]] bool done() const noexcept { return is_terminal(poll()); }
  /// Cancel if still queued (including between a failed attempt and its
  /// scheduled retry — the cancel wins and the retry never dispatches).
  /// True iff *this call* transitioned the ticket Queued -> Cancelled;
  /// false when dispatch (or a racing cancel, or shed/defer at submit)
  /// won. A cancelled ticket's solver never runs again.
  bool cancel() const;
  /// Block until the ticket is terminal, or until `timeout_seconds`
  /// elapses (std::nullopt = wait forever). Returns the state observed
  /// when the wait ended: terminal iff the ticket resolved in time;
  /// Queued / Running mean the timeout expired first and the handle is
  /// still live (a stalled shard can no longer wedge a bounded caller).
  TicketState wait(std::optional<double> timeout_seconds = std::nullopt) const;
  /// Terminal outcome (stable reference, valid for the shared state's
  /// lifetime — it outlives the service). Throws InvalidArgument until
  /// poll() is terminal; wait() first.
  [[nodiscard]] const RequestOutcome& outcome() const;

 private:
  friend class FormationService;
  explicit RequestHandle(std::shared_ptr<detail::Ticket> ticket)
      : ticket_(std::move(ticket)) {}
  std::shared_ptr<detail::Ticket> ticket_;
};

/// Aggregate accounting snapshot (stats()); latency quantiles come from
/// the service's obs histograms (log2 buckets, factor-2 bound — see
/// obs::Histogram::Snapshot::quantile).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< admitted into a queue
  std::uint64_t completed = 0;  ///< reached Done
  std::uint64_t cancelled = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t failed = 0;     ///< retry budget exhausted (terminal)
  std::uint64_t expired = 0;    ///< DeadlineExceeded before a solve
  std::uint64_t retries = 0;    ///< re-attempts scheduled after failures
  std::uint64_t restarts = 0;   ///< killed shards detected + restarted
  std::uint64_t tick_aborts = 0;  ///< injected shard kills
  std::uint64_t stalls = 0;       ///< injected straggler ticks
  std::uint64_t solver_runs = 0;  ///< mechanism attempts (incl. failed)
  std::uint64_t ticks = 0;        ///< shard batch executions
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  double solve_p50_us = 0.0;
  double solve_p99_us = 0.0;
  /// Deepest redelivery observed: max attempts of any retried ticket.
  double redelivery_max = 0.0;
};

/// Live per-shard introspection (health()).
struct ShardHealth {
  std::size_t index = 0;
  std::size_t queue_depth = 0;  ///< tickets queued (incl. retry-parked)
  bool killed = false;          ///< between a fault-plan abort and restart
  std::uint64_t ticks = 0;
  std::uint64_t solved = 0;
  std::uint64_t retries = 0;
  std::uint64_t expired = 0;
  std::uint64_t restarts = 0;
};

/// Point-in-time operational snapshot (health()): per-shard depths,
/// latency quantiles over the last N telemetry windows (cumulative when
/// telemetry is off), SLO verdicts, and an overload verdict. This is
/// the "is the service healthy right now" API the end-of-run stats()
/// cannot answer.
struct ServiceHealth {
  double now_seconds = 0.0;       ///< service-clock reading
  bool telemetry_enabled = false;
  std::uint64_t outstanding = 0;  ///< admitted, not yet terminal
  std::uint64_t windows_closed = 0;
  /// Quantiles over the rollup of the last N windows when telemetry is
  /// on; over the cumulative run otherwise (factor-2 log2-bucket bound
  /// either way).
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  double solve_p50_us = 0.0;
  double solve_p99_us = 0.0;
  std::vector<ShardHealth> shards;
  std::vector<obs::SloStatus> slos;
  /// True when any shard queue is at capacity, or (telemetry on) the
  /// rollup window saw shed/deferred admissions.
  bool overloaded = false;
};

/// The service core. Thread-safe: submit/cancel/poll/wait/stats may be
/// called concurrently from any thread.
class FormationService {
 public:
  /// `mechanism` must outlive the service (its run() is const and
  /// thread-safe, so one instance serves every shard). Validates
  /// `options`.
  explicit FormationService(const core::VoFormationMechanism& mechanism,
                            ServiceOptions options = {});
  /// Resumes (if paused), drains every admitted ticket, joins the pool.
  ~FormationService();

  FormationService(const FormationService&) = delete;
  FormationService& operator=(const FormationService&) = delete;

  /// Submit one formation request. Copies request.rng's *state* (the
  /// caller's generator is not advanced) and request.candidates; the
  /// instance and trust graph are captured by reference and must stay
  /// alive until the ticket is terminal. Never blocks on solver work: a
  /// full shard returns an already-terminal Shed/Deferred handle. Throws
  /// InvalidArgument ("SubmitOptions: ...") on a NaN or negative
  /// deadline or a retry budget above ServiceOptions::kMaxRetryBudget.
  RequestHandle submit(const core::FormationRequest& request,
                       const SubmitOptions& options = {});

  /// Start dispatching when constructed with start_paused (idempotent).
  void resume();

  /// Block until every admitted ticket is terminal. Requires a resumed
  /// service (throws InvalidArgument if still paused — that wait would
  /// never end). New submissions during drain() extend it.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// Operational snapshot: samples any due telemetry windows first,
  /// then reads shard depths, rollup quantiles over the newest
  /// min(last_n, closed) windows, and SLO state. Safe to call
  /// concurrently with everything else.
  [[nodiscard]] ServiceHealth health(std::size_t last_n = 8);

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  /// The service-local metric registry (svc.* counters/histograms,
  /// svc.shard<i>.* per-shard counters) — same local-registry pattern
  /// as core::ProtocolMetrics.
  [[nodiscard]] const obs::MetricRegistry& metrics() const noexcept {
    return registry_;
  }

 private:
  friend class RequestHandle;  // cancel routes through cancel_ticket

  struct Shard;

  void schedule_tick(Shard& shard);
  void run_tick(Shard& shard);
  /// Telemetry sampler hook: closes every window whose end has passed
  /// on the service clock (no-op — one pointer branch, no atomics —
  /// when telemetry is off). Contended calls skip rather than queue:
  /// some later tick closes the window, losing nothing.
  void maybe_sample();
  /// Supervisor path: a killed shard is brought back on a fresh pool
  /// task — queue intact, restart accounted — and its tick rescheduled.
  void restart_shard(Shard& shard);
  bool cancel_ticket(const std::shared_ptr<detail::Ticket>& ticket);
  /// One admitted ticket reached a terminal state (drain bookkeeping).
  void note_terminal();

  ServiceOptions options_;
  const core::VoFormationMechanism& mechanism_;

  /// Fault-plan lookups by ticket id, built once at construction so a
  /// million-request soak pays O(1) per submit.
  std::unordered_map<std::uint64_t, std::uint32_t> solver_faults_by_ticket_;
  std::unordered_map<std::uint64_t, TickFault> tick_faults_by_ticket_;

  mutable obs::MetricRegistry registry_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& cancelled_;
  obs::Counter& shed_;
  obs::Counter& deferred_;
  obs::Counter& failed_;
  obs::Counter& expired_;
  obs::Counter& retries_;
  obs::Counter& restarts_;
  obs::Counter& tick_aborts_;
  obs::Counter& stalls_;
  obs::Counter& solver_runs_;
  obs::Counter& ticks_;
  obs::Histogram& queue_us_;
  obs::Histogram& solve_us_;
  /// Attempt count of every retried ticket at each redelivery — the
  /// "how deep do retries go" distribution.
  obs::Histogram& redelivery_depth_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Windowed-telemetry state; null when stats_window_seconds == 0, so
  /// the telemetry-off hot path pays exactly one pointer test.
  struct Telemetry;
  std::unique_ptr<Telemetry> telemetry_;

  std::atomic<bool> paused_;
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::uint64_t> next_dispatch_{0};
  /// Admitted-but-not-terminal tickets, for drain().
  std::atomic<std::uint64_t> outstanding_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  /// Service-relative clock: deadlines and retry ready-times are
  /// absolute seconds on this timer (monotonic, shared by every shard).
  util::WallTimer clock_;

  /// Last member: destroyed first, so in-flight ticks still see live
  /// shards/metrics while the pool drains during destruction.
  util::ThreadPool pool_;
};

}  // namespace svo::svc
