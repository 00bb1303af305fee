#include "sim/stream_engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "des/event_queue.hpp"
#include "obs/trace.hpp"
#include "trace/stream.hpp"
#include "util/stats.hpp"

namespace svo::sim {

const char* to_string(RequestOutcome outcome) noexcept {
  switch (outcome) {
    case RequestOutcome::Pending:
      return "pending";
    case RequestOutcome::Completed:
      return "completed";
    case RequestOutcome::Repaired:
      return "repaired";
    case RequestOutcome::Shed:
      return "shed";
    case RequestOutcome::TimedOut:
      return "timed_out";
  }
  return "unknown";
}

const char* to_string(StreamEventKind kind) noexcept {
  switch (kind) {
    case StreamEventKind::RequestArrival:
      return "request_arrival";
    case StreamEventKind::AdmissionShed:
      return "admission_shed";
    case StreamEventKind::AdmissionDefer:
      return "admission_defer";
    case StreamEventKind::FormationStart:
      return "formation_start";
    case StreamEventKind::FormationInfeasible:
      return "formation_infeasible";
    case StreamEventKind::FormationAborted:
      return "formation_aborted";
    case StreamEventKind::FormationCommit:
      return "formation_commit";
    case StreamEventKind::ExecutionCompleted:
      return "execution_completed";
    case StreamEventKind::RepairStarted:
      return "repair_started";
    case StreamEventKind::RepairFailed:
      return "repair_failed";
    case StreamEventKind::RequestTimedOut:
      return "request_timed_out";
    case StreamEventKind::RequestShed:
      return "request_shed";
    case StreamEventKind::GspLeft:
      return "gsp_left";
    case StreamEventKind::GspLeaveDeferred:
      return "gsp_leave_deferred";
    case StreamEventKind::GspCrashed:
      return "gsp_crashed";
    case StreamEventKind::GspRejoined:
      return "gsp_rejoined";
  }
  return "unknown";
}

void StreamOptions::validate() const {
  churn.validate();
  const std::size_t m = base.gen.params.num_gsps;
  detail::require(m > 0 && m <= game::Coalition::kMaxPlayers,
                  "StreamOptions: num_gsps must be in [1, 64]");
  detail::require(num_requests > 0, "StreamOptions: num_requests must be > 0");
  detail::require(
      std::isfinite(arrival_interval_seconds) && arrival_interval_seconds > 0.0,
      "StreamOptions: arrival_interval_seconds must be finite and > 0");
  detail::require(
      !std::isnan(formation_deadline_seconds) &&
          formation_deadline_seconds > 0.0,
      "StreamOptions: formation_deadline_seconds must be > 0 (inf = none)");
  detail::require(std::isfinite(formation_seconds) && formation_seconds >= 0.0,
                  "StreamOptions: formation_seconds must be finite and >= 0");
  detail::require(
      std::isfinite(retry_backoff_seconds) && retry_backoff_seconds >= 0.0,
      "StreamOptions: retry_backoff_seconds must be finite and >= 0");
  detail::require(std::isfinite(retry_backoff_multiplier) &&
                      retry_backoff_multiplier >= 1.0,
                  "StreamOptions: retry_backoff_multiplier must be >= 1");
  detail::require(max_attempts > 0, "StreamOptions: max_attempts must be > 0");
  detail::require(admission_floor <= m,
                  "StreamOptions: admission_floor exceeds the GSP pool size");
  detail::require(
      std::isfinite(execution_time_scale) && execution_time_scale >= 0.0,
      "StreamOptions: execution_time_scale must be finite and >= 0");
  detail::require(
      std::isfinite(churn_horizon_seconds) && churn_horizon_seconds >= 0.0,
      "StreamOptions: churn_horizon_seconds must be finite and >= 0 (0 = auto)");
  if (ingest == Ingest::SweepGrid) {
    detail::require(
        !base.task_sizes.empty(),
        "StreamOptions: SweepGrid ingest requires non-empty base.task_sizes");
  }
  detail::require(
      std::isfinite(stats_window_seconds) && stats_window_seconds >= 0.0,
      "StreamOptions: stats_window_seconds must be finite and >= 0");
  if (stats_window_seconds > 0.0) {
    detail::require(stats_window_capacity > 0,
                    "StreamOptions: stats_window_capacity must be > 0");
  } else {
    detail::require(slos.empty(),
                    "StreamOptions: slos require stats_window_seconds > 0");
  }
  for (const obs::SloObjective& o : slos) o.validate();
}

namespace {

std::unique_ptr<core::VoFormationMechanism> make_mechanism(
    MechanismKind kind, const ip::AssignmentSolver& solver,
    const core::MechanismConfig& config) {
  switch (kind) {
    case MechanismKind::Rvof:
      return std::make_unique<core::RvofMechanism>(solver, config);
    case MechanismKind::Tvof:
      break;
  }
  return std::make_unique<core::TvofMechanism>(solver, config);
}

/// Live state of one admitted request.
struct RequestState {
  std::size_t id = 0;
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
  /// The request's private mechanism stream; with churn off this is
  /// exactly the scenario's tvof/rvof stream, consumed exactly once.
  util::Xoshiro256 rng{0};
  double arrival = 0.0;
  double deadline = std::numeric_limits<double>::infinity();
  /// Bumped whenever scheduled events for this request become stale
  /// (abort, repair, terminal); closures carry the epoch they saw.
  std::size_t epoch = 0;
  std::size_t attempts = 0;
  std::size_t repair_rounds = 0;
  bool committed = false;
  bool pending_commit = false;
  /// Reserved members (commit window or execution).
  game::Coalition vo{};
  core::MechanismResult formation;
  /// Costs sunk by crashed execution attempts.
  double sunk = 0.0;
  double commit_time = 0.0;
  RequestOutcome outcome = RequestOutcome::Pending;
  double terminal_time = 0.0;
};

/// All mutable run() state; closures capture a pointer to this.
struct Engine {
  const StreamOptions& opts;
  des::Simulator sim;
  std::vector<RequestState> requests;
  std::vector<char> live;
  std::vector<char> leave_pending;
  game::Coalition busy{};
  QuarantineLedger ledger;
  std::size_t formation_counter = 0;
  std::vector<StreamLogEntry> timeline;
  std::map<std::size_t, std::size_t> quarantine_activations;
  std::size_t m = 0;

  /// Virtual-time telemetry (DESIGN.md §4j), null when off. Windows
  /// advance *lazily* from this tap — never via scheduled simulator
  /// events, which would extend the horizon and break the telemetry-off
  /// bit-identity. Pure observer: reads sim.now(), mutates nothing the
  /// events see.
  std::unique_ptr<obs::MetricRegistry> tel_registry;
  std::unique_ptr<obs::TimeSeries> tel_series;
  std::unique_ptr<obs::SloTracker> tel_slo;
  double tel_next_end = 0.0;

  Engine(const StreamOptions& o, std::size_t num_gsps)
      : opts(o),
        live(num_gsps, 1),
        leave_pending(num_gsps, 0),
        ledger(o.quarantine_formations),
        m(num_gsps) {
    if (opts.stats_window_seconds > 0.0) {
      tel_registry = std::make_unique<obs::MetricRegistry>();
      tel_series = std::make_unique<obs::TimeSeries>(
          *tel_registry, opts.stats_window_capacity);
      tel_slo = std::make_unique<obs::SloTracker>(opts.slos,
                                                  tel_registry.get());
      tel_next_end = opts.stats_window_seconds;
    }
  }

  /// Close every window that ended at or before `now` (an event at the
  /// exact boundary k*w belongs to window k, which covers [k*w,(k+1)*w)).
  void advance_telemetry(double now) {
    while (tel_next_end <= now) {
      const obs::Window& w = tel_series->advance(tel_next_end);
      tel_slo->evaluate(w);
      tel_next_end += opts.stats_window_seconds;
    }
  }

  void log(StreamEventKind kind, std::size_t request = SIZE_MAX,
           std::size_t gsp = SIZE_MAX) {
    if (tel_registry) {
      advance_telemetry(sim.now());
      tel_registry->counter(std::string("stream.") + to_string(kind)).add();
      tel_registry->gauge("stream.live")
          .set(static_cast<double>(live_count()));
      tel_registry->gauge("stream.busy")
          .set(static_cast<double>(busy.size()));
    }
    timeline.push_back({sim.now(), kind, request, gsp});
  }

  [[nodiscard]] std::size_t live_count() const {
    return static_cast<std::size_t>(
        std::count(live.begin(), live.end(), char{1}));
  }

  /// Live GSPs not reserved by any VO.
  [[nodiscard]] game::Coalition free_pool() const {
    game::Coalition pool;
    for (std::size_t g = 0; g < m; ++g) {
      if (live[g] && !busy.contains(g)) pool = pool.with(g);
    }
    return pool;
  }

  [[nodiscard]] double exec_duration(const RequestState& q) const {
    return q.instance.deadline * opts.execution_time_scale;
  }

  /// One mechanism run over `candidates`, feeding the quarantine ledger's
  /// current fresh list into the robust layer. With no rejoins recorded
  /// the config is bit-identical to opts.base.mechanism, so churn-off
  /// streaming reproduces the one-shot sweep exactly.
  core::MechanismResult run_mechanism(RequestState& q,
                                      game::Coalition candidates) {
    core::MechanismConfig config = opts.base.mechanism;
    std::vector<std::size_t> fresh = ledger.fresh(formation_counter);
    if (!fresh.empty()) {
      auto& list = config.reputation.robust.fresh;
      list.insert(list.end(), fresh.begin(), fresh.end());
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    ++formation_counter;
    const ip::BnbAssignmentSolver solver(opts.base.solver);
    const auto mechanism = make_mechanism(opts.mechanism, solver, config);
    return mechanism->run(
        core::FormationRequest{q.instance, q.trust, q.rng, candidates});
  }

  /// Free a request's reservation; deferred graceful leaves of its
  /// members take effect now that the VO no longer needs them.
  void release_members(RequestState& q) {
    for (const std::size_t g : q.vo.members()) {
      if (leave_pending[g]) {
        live[g] = 0;
        leave_pending[g] = 0;
        log(StreamEventKind::GspLeft, SIZE_MAX, g);
      }
    }
    busy = game::Coalition(busy.bits() & ~q.vo.bits());
    q.vo = game::Coalition{};
  }

  void terminal(std::size_t r, RequestOutcome outcome, StreamEventKind kind) {
    RequestState& q = requests[r];
    q.outcome = outcome;
    q.terminal_time = sim.now();
    q.pending_commit = false;
    release_members(q);
    ++q.epoch;
    log(kind, r);
  }

  void schedule_retry(std::size_t r) {
    RequestState& q = requests[r];
    if (q.attempts >= opts.max_attempts) {
      terminal(r, RequestOutcome::TimedOut, StreamEventKind::RequestTimedOut);
      return;
    }
    const double delay =
        opts.retry_backoff_seconds *
        std::pow(opts.retry_backoff_multiplier,
                 static_cast<double>(q.attempts > 0 ? q.attempts - 1 : 0));
    if (sim.now() + delay > q.deadline) {
      terminal(r, RequestOutcome::TimedOut, StreamEventKind::RequestTimedOut);
      return;
    }
    const std::size_t epoch = q.epoch;
    sim.schedule(delay, [this, r, epoch] {
      if (requests[r].epoch == epoch) attempt(r);
    });
  }

  void attempt(std::size_t r) {
    RequestState& q = requests[r];
    if (q.outcome != RequestOutcome::Pending || q.committed) return;
    if (sim.now() > q.deadline) {
      terminal(r, RequestOutcome::TimedOut, StreamEventKind::RequestTimedOut);
      return;
    }
    if (live_count() < opts.admission_floor) {
      if (opts.defer_below_floor) {
        ++q.attempts;
        log(StreamEventKind::AdmissionDefer, r);
        schedule_retry(r);
      } else {
        log(StreamEventKind::AdmissionShed, r);
        terminal(r, RequestOutcome::Shed, StreamEventKind::RequestShed);
      }
      return;
    }
    ++q.attempts;
    const game::Coalition candidates = free_pool();
    if (candidates.empty()) {
      log(StreamEventKind::FormationInfeasible, r);
      schedule_retry(r);
      return;
    }
    log(StreamEventKind::FormationStart, r);
    core::MechanismResult result = run_mechanism(q, candidates);
    if (!result.success) {
      log(StreamEventKind::FormationInfeasible, r);
      schedule_retry(r);
      return;
    }
    // Award enters the commit window: members are reserved now, the VO
    // commits formation_seconds later unless a member crashes first.
    q.formation = std::move(result);
    q.vo = q.formation.selected;
    busy = busy.unite(q.vo);
    q.pending_commit = true;
    const std::size_t epoch = q.epoch;
    sim.schedule(opts.formation_seconds, [this, r, epoch] { commit(r, epoch); });
  }

  void commit(std::size_t r, std::size_t epoch) {
    RequestState& q = requests[r];
    if (q.epoch != epoch || q.outcome != RequestOutcome::Pending ||
        !q.pending_commit) {
      return;
    }
    q.pending_commit = false;
    q.committed = true;
    q.commit_time = sim.now();
    log(StreamEventKind::FormationCommit, r);
    if (tel_registry) {
      tel_registry->histogram("stream.formation_latency_s")
          .observe(q.commit_time - q.arrival);
    }
    const std::size_t e = q.epoch;
    sim.schedule(exec_duration(q), [this, r, e] { complete_execution(r, e); });
  }

  void complete_execution(std::size_t r, std::size_t epoch) {
    RequestState& q = requests[r];
    if (q.epoch != epoch || q.outcome != RequestOutcome::Pending) return;
    terminal(r,
             q.repair_rounds > 0 ? RequestOutcome::Repaired
                                 : RequestOutcome::Completed,
             StreamEventKind::ExecutionCompleted);
  }

  /// A committed member crashed mid-execution: sink the broken attempt's
  /// costs and re-form over the survivors plus the free live pool.
  void repair(std::size_t r) {
    RequestState& q = requests[r];
    log(StreamEventKind::RepairStarted, r);
    q.sunk += q.formation.cost;
    ++q.epoch;  // the old completion event is now stale
    release_members(q);
    ++q.repair_rounds;
    const game::Coalition candidates = free_pool();
    if (q.repair_rounds <= opts.max_repair_rounds && !candidates.empty()) {
      core::MechanismResult result = run_mechanism(q, candidates);
      if (result.success) {
        q.formation = std::move(result);
        q.vo = q.formation.selected;
        busy = busy.unite(q.vo);
        const std::size_t e = q.epoch;
        sim.schedule(exec_duration(q),
                     [this, r, e] { complete_execution(r, e); });
        return;
      }
    }
    log(StreamEventKind::RepairFailed, r);
    q.committed = false;
    schedule_retry(r);
  }

  void on_timeout(std::size_t r) {
    RequestState& q = requests[r];
    if (q.outcome != RequestOutcome::Pending || q.committed) return;
    terminal(r, RequestOutcome::TimedOut, StreamEventKind::RequestTimedOut);
  }

  void arrive(std::size_t r) {
    RequestState& q = requests[r];
    q.arrival = sim.now();
    log(StreamEventKind::RequestArrival, r);
    if (std::isfinite(opts.formation_deadline_seconds)) {
      q.deadline = sim.now() + opts.formation_deadline_seconds;
      sim.schedule(opts.formation_deadline_seconds,
                   [this, r] { on_timeout(r); });
    }
    attempt(r);
  }

  void on_leave(std::size_t g) {
    if (!live[g]) return;
    if (busy.contains(g)) {
      // Graceful: the GSP drains its current VO before departing.
      leave_pending[g] = 1;
      log(StreamEventKind::GspLeaveDeferred, SIZE_MAX, g);
    } else {
      live[g] = 0;
      log(StreamEventKind::GspLeft, SIZE_MAX, g);
    }
  }

  void on_crash(std::size_t g) {
    if (!live[g]) return;
    live[g] = 0;
    leave_pending[g] = 0;
    log(StreamEventKind::GspCrashed, SIZE_MAX, g);
    // Crash inside a commit window aborts the pending award.
    for (RequestState& q : requests) {
      if (q.outcome == RequestOutcome::Pending && q.pending_commit &&
          q.vo.contains(g)) {
        log(StreamEventKind::FormationAborted, q.id);
        q.pending_commit = false;
        release_members(q);
        ++q.epoch;
        schedule_retry(q.id);
      }
    }
    // Crash mid-execution triggers VO repair over the survivors.
    for (RequestState& q : requests) {
      if (q.outcome == RequestOutcome::Pending && q.committed &&
          q.vo.contains(g)) {
        repair(q.id);
      }
    }
  }

  void on_rejoin(std::size_t g) {
    if (live[g]) {
      // A deferred leave that never took effect: the GSP stays; it never
      // actually departed, so no quarantine.
      leave_pending[g] = 0;
      return;
    }
    live[g] = 1;
    leave_pending[g] = 0;
    // Exactly one quarantine activation per rejoin: the ledger arms the
    // window here and nowhere else (satellite regression in
    // tests/sim/churn_test.cpp).
    ledger.record_rejoin(g, formation_counter);
    ++quarantine_activations[g];
    log(StreamEventKind::GspRejoined, SIZE_MAX, g);
  }
};

}  // namespace

StreamEngine::StreamEngine(StreamOptions options)
    : options_((options.validate(), std::move(options))),
      factory_(options_.base) {}

StreamResult StreamEngine::run() const {
  const std::size_t m = options_.base.gen.params.num_gsps;
  obs::Span span("sim.stream.run", "sim");
  if (span.active()) {
    span.arg("requests", static_cast<double>(options_.num_requests));
    span.arg("mechanism",
             options_.mechanism == MechanismKind::Tvof ? "TVOF" : "RVOF");
    span.arg("churn", options_.churn.enabled() ? 1.0 : 0.0);
  }

  Engine engine(options_, m);
  engine.requests.reserve(options_.num_requests);

  // Materialize the request workloads. SweepGrid reuses the one-shot
  // sweep's exact scenarios; StreamingAtlas skims the chunked synthetic
  // stream for eligible long jobs (O(1) jobs in memory at a time).
  if (options_.ingest == StreamOptions::Ingest::SweepGrid) {
    const std::size_t num_sizes = options_.base.task_sizes.size();
    for (std::size_t i = 0; i < options_.num_requests; ++i) {
      Scenario scenario = factory_.make(
          options_.base.task_sizes[i % num_sizes], i / num_sizes);
      RequestState q;
      q.id = i;
      q.instance = std::move(scenario.instance.assignment);
      q.trust = scenario.trust;
      q.rng = util::Xoshiro256(options_.mechanism == MechanismKind::Tvof
                                   ? scenario.tvof_seed
                                   : scenario.rvof_seed);
      engine.requests.push_back(std::move(q));
    }
  } else {
    trace::AtlasJobStream stream(
        options_.base.trace,
        util::derive_seed(options_.base.seed, /*stream=*/0xA71A5));
    for (std::size_t i = 0; i < options_.num_requests; ++i) {
      const auto program =
          stream.next_program(options_.base.gen.params.min_job_runtime,
                              options_.max_stream_tasks);
      if (!program) break;  // stream exhausted: admit fewer requests
      util::Xoshiro256 gen_rng(util::derive_seed(
          options_.base.seed, 0x57BEA0ULL ^ (static_cast<std::uint64_t>(i) << 8)));
      workload::GridInstance grid =
          workload::generate_instance(*program, options_.base.gen, gen_rng);
      RequestState q;
      q.id = i;
      q.instance = std::move(grid.assignment);
      q.trust = trust::random_trust_graph(
          m, options_.base.gen.params.trust_edge_probability, gen_rng);
      q.rng = util::Xoshiro256(util::derive_seed(
          options_.base.seed,
          (options_.mechanism == MechanismKind::Tvof ? 0x7F0F'0000'0000ULL
                                                     : 0x4F0F'0000'0000ULL) ^
              (0x57BEA0ULL + i)));
      engine.requests.push_back(std::move(q));
    }
  }

  // Deterministic churn schedule over a horizon covering the arrival
  // span and the execution tail. Scheduled before the arrivals so a
  // churn event at an arrival's exact time reshapes that arrival's pool.
  StreamResult out;
  const double horizon =
      options_.churn_horizon_seconds > 0.0
          ? options_.churn_horizon_seconds
          : 2.0 * options_.arrival_interval_seconds *
                    static_cast<double>(options_.num_requests) +
                1.0;
  out.churn_schedule = build_churn_schedule(options_.churn, m, horizon);
  for (const ChurnEvent& event : out.churn_schedule) {
    engine.sim.schedule_at(event.time, [&engine, event] {
      switch (event.kind) {
        case ChurnEventKind::Leave:
          engine.on_leave(event.gsp);
          break;
        case ChurnEventKind::Crash:
          engine.on_crash(event.gsp);
          break;
        case ChurnEventKind::Rejoin:
          engine.on_rejoin(event.gsp);
          break;
      }
    });
  }
  for (std::size_t i = 0; i < engine.requests.size(); ++i) {
    engine.sim.schedule_at(
        static_cast<double>(i) * options_.arrival_interval_seconds,
        [&engine, i] { engine.arrive(i); });
  }
  engine.sim.run();

  if (engine.tel_registry) {
    // Close trailing full windows, then one final partial window up to
    // the horizon so the tail of the run is accounted. Deterministic:
    // the horizon is itself a pure function of the config.
    engine.advance_telemetry(engine.sim.now());
    const double last_closed =
        engine.tel_next_end - options_.stats_window_seconds;
    if (engine.sim.now() > last_closed) {
      const obs::Window& w = engine.tel_series->advance(engine.sim.now());
      engine.tel_slo->evaluate(w);
    }
    const auto& ring = engine.tel_series->windows();
    out.windows.assign(ring.begin(), ring.end());
    out.slo_status = engine.tel_slo->status();
  }

  // Aggregate.
  out.timeline = std::move(engine.timeline);
  out.quarantine_activations = std::move(engine.quarantine_activations);
  out.admitted = engine.requests.size();
  out.horizon = engine.sim.now();
  std::vector<double> latencies;
  for (RequestState& q : engine.requests) {
    StreamRequestResult rr;
    rr.id = q.id;
    rr.num_tasks = q.instance.num_tasks();
    rr.outcome = q.outcome;
    rr.arrival_time = q.arrival;
    rr.terminal_time = q.terminal_time;
    rr.attempts = q.attempts;
    rr.repair_rounds = q.repair_rounds;
    switch (q.outcome) {
      case RequestOutcome::Completed:
        ++out.completed;
        break;
      case RequestOutcome::Repaired:
        ++out.repaired;
        break;
      case RequestOutcome::Shed:
        ++out.shed;
        break;
      case RequestOutcome::TimedOut:
        ++out.timed_out;
        break;
      case RequestOutcome::Pending:
        ++out.lost;  // must never happen; surfaced, not hidden
        break;
    }
    if (q.outcome == RequestOutcome::Completed ||
        q.outcome == RequestOutcome::Repaired) {
      rr.formation_latency_seconds = q.commit_time - q.arrival;
      latencies.push_back(rr.formation_latency_seconds);
      rr.realized_value = q.formation.value - q.sunk;
      out.total_realized_value += rr.realized_value;
      rr.formation = std::move(q.formation);
    }
    out.requests.push_back(std::move(rr));
  }
  if (out.admitted > 0) {
    out.completion_rate =
        static_cast<double>(out.completed + out.repaired) /
        static_cast<double>(out.admitted);
    out.deadline_miss_rate = static_cast<double>(out.timed_out) /
                             static_cast<double>(out.admitted);
  }
  if (!latencies.empty()) {
    util::RunningStats stats;
    for (const double v : latencies) stats.add(v);
    out.mean_formation_latency = stats.mean();
    out.p99_formation_latency = util::percentile(latencies, 0.99);
  }
  if (span.active()) {
    auto& metrics = obs::Recorder::instance().metrics();
    metrics.counter("sim.stream.requests").add(out.admitted);
    metrics.counter("sim.stream.completed").add(out.completed);
    metrics.counter("sim.stream.repaired").add(out.repaired);
    metrics.counter("sim.stream.shed").add(out.shed);
    metrics.counter("sim.stream.timed_out").add(out.timed_out);
    metrics.counter("sim.stream.formations").add(engine.formation_counter);
    for (const double v : latencies) {
      metrics.histogram("sim.stream.formation_latency_seconds").observe(v);
    }
  }
  return out;
}

}  // namespace svo::sim
