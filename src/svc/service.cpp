#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/export_prom.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace svo::svc {

const char* to_string(TicketState state) noexcept {
  switch (state) {
    case TicketState::Queued: return "queued";
    case TicketState::Running: return "running";
    case TicketState::Done: return "done";
    case TicketState::Cancelled: return "cancelled";
    case TicketState::Shed: return "shed";
    case TicketState::Deferred: return "deferred";
    case TicketState::Failed: return "failed";
    case TicketState::DeadlineExceeded: return "deadline_exceeded";
  }
  return "?";
}

void ServiceOptions::validate() const {
  svo::detail::require(shards > 0, "ServiceOptions: shards must be > 0");
  svo::detail::require(queue_capacity > 0,
                  "ServiceOptions: queue_capacity must be > 0");
  svo::detail::require(batch_size > 0, "ServiceOptions: batch_size must be > 0");
  svo::detail::require(batch_size <= queue_capacity,
                  "ServiceOptions: batch_size exceeds queue_capacity");
  svo::detail::require(
      std::isfinite(retry_backoff_base_seconds) &&
          retry_backoff_base_seconds >= 0.0,
      "ServiceOptions: retry_backoff_base_seconds must be finite and >= 0");
  svo::detail::require(
      std::isfinite(retry_backoff_cap_seconds) &&
          retry_backoff_cap_seconds >= retry_backoff_base_seconds,
      "ServiceOptions: retry_backoff_cap_seconds must be finite and >= base");
  faults.validate();
  obs::WindowSampler::validate("ServiceOptions", stats_window_seconds,
                               stats_window_capacity, slos);
  svo::detail::require(
      stats_window_seconds > 0.0 || stats_jsonl_path.empty(),
      "ServiceOptions: stats_jsonl_path requires stats_window_seconds > 0");
}

namespace detail {

/// Shared state behind one RequestHandle. The outcome is written before
/// the terminal state is published under `mu`, so any thread that
/// observed a terminal poll() may read the outcome without further
/// synchronization.
struct Ticket {
  std::uint64_t id = 0;
  std::size_t shard = 0;
  FormationService* service = nullptr;

  // Request snapshot: referenced inputs + copied RNG state / candidates.
  // `rng` is the pristine admission-time snapshot: every solve attempt
  // runs on a fresh copy, so retries are exact re-executions and the
  // probe of a successful attempt is bit-identical to a direct run.
  const ip::AssignmentInstance* instance = nullptr;
  const trust::TrustGraph* trust = nullptr;
  util::Xoshiro256 rng;
  game::Coalition candidates{};
  core::WarmStartPolicy warm = core::WarmStartPolicy::Incremental;

  // Scheduling metadata (§4h). Absolute times on the service clock.
  std::int32_t priority = 0;
  double deadline_at = std::numeric_limits<double>::infinity();
  double ready_at = 0.0;  ///< earliest dispatch (retry backoff)
  std::uint32_t max_retries = 0;
  /// Solve attempts taken so far. Mutated only by the owning shard's
  /// tick (single-threaded per shard); published with the terminal
  /// outcome under `mu`.
  std::uint32_t attempts = 0;

  // Injected chaos stamped at submit (fault_plan.hpp), keyed by id.
  std::uint32_t injected_failures = 0;  ///< attempts that throw (kPoison)
  bool has_tick_fault = false;
  TickFaultKind tick_fault_kind = TickFaultKind::Stall;
  double tick_fault_stall = 0.0;
  bool tick_fault_fired = false;  ///< owned by the shard tick

  util::WallTimer admitted;  ///< reset when the ticket enters its queue
  std::atomic<TicketState> state{TicketState::Queued};
  std::mutex mu;
  std::condition_variable cv;
  RequestOutcome outcome;
};

}  // namespace detail

using detail::Ticket;

namespace {

/// Injected solver failure: thrown instead of running the mechanism
/// when the fault plan marks this attempt.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Clock = std::chrono::steady_clock;

/// The steady-clock time `seconds` (finite, >= 0) from now, or nullopt
/// (unbounded) when the clock cannot represent it. Converting the double
/// duration with chrono directly would overflow the clock's int64
/// nanoseconds from about 9.2e9 s on and turn a long wait into none.
std::optional<Clock::time_point> deadline_after(double seconds) {
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> headroom = Clock::time_point::max() - now;
  if (seconds >= headroom.count() - 1.0) return std::nullopt;
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/// Shard drain order: priority desc, deadline asc (EDF), admission
/// order. With default metadata this is exactly admission order.
struct TicketOrder {
  bool operator()(const std::shared_ptr<Ticket>& a,
                  const std::shared_ptr<Ticket>& b) const noexcept {
    if (a->priority != b->priority) return a->priority > b->priority;
    if (a->deadline_at != b->deadline_at) return a->deadline_at < b->deadline_at;
    return a->id < b->id;
  }
};

}  // namespace

/// One mechanism shard: a bounded priority queue of tickets plus the
/// scheduling flag that guarantees at most one tick task is in flight
/// per shard (shard execution is single-threaded by construction) and
/// the killed flag a fault-plan abort raises until the supervisor
/// restart clears it. The metric references are this shard's own stable
/// obs handles.
struct FormationService::Shard {
  Shard(std::size_t idx, obs::MetricRegistry& registry,
        const std::string& prefix)
      : index(idx),
        ticks(registry.counter(prefix + ".ticks")),
        solved(registry.counter(prefix + ".solved")),
        retries(registry.counter(prefix + ".retries")),
        expired(registry.counter(prefix + ".expired")),
        restarts(registry.counter(prefix + ".restarts")),
        depth(registry.gauge(prefix + ".queue_depth")) {}

  std::size_t index;
  std::mutex mu;
  std::multiset<std::shared_ptr<Ticket>, TicketOrder> queue;  // guarded by mu
  bool tick_scheduled = false;                                // guarded by mu
  bool killed = false;  ///< guarded by mu; true between abort and restart
  obs::Counter& ticks;
  obs::Counter& solved;
  obs::Counter& retries;
  obs::Counter& expired;
  obs::Counter& restarts;
  /// Live queue depth, kept by Gauge::add(±delta) at every queue
  /// mutation (all under mu) — same always-on accounting tier as the
  /// counters above, read lock-free by health() and the exporters.
  obs::Gauge& depth;
};

/// Windowed-telemetry state (DESIGN.md §4j), constructed only when
/// ServiceOptions::stats_window_seconds > 0. The tick loop's
/// maybe_sample() try-locks `mu`: sampling is best-effort per call but
/// every window eventually closes with exact [k*w, (k+1)*w) bounds.
struct FormationService::Telemetry {
  Telemetry(obs::MetricRegistry& registry, const ServiceOptions& opt)
      : sampler(registry, opt.stats_window_seconds, opt.stats_window_capacity,
                opt.slos) {
    if (!opt.stats_jsonl_path.empty()) {
      jsonl.open(opt.stats_jsonl_path, std::ios::out | std::ios::trunc);
      svo::detail::require(jsonl.is_open(),
                           "ServiceOptions: cannot open stats_jsonl_path");
      sink = [this](const obs::Window& w) {
        obs::write_window_jsonl(jsonl, w);
        jsonl << '\n';
      };
    }
  }

  std::mutex mu;
  obs::WindowSampler sampler;     // guarded by mu
  std::ofstream jsonl;            // guarded by mu
  obs::WindowSampler::Sink sink;  // appends to jsonl; empty without a path
};

std::uint64_t RequestHandle::id() const noexcept { return ticket_->id; }

std::size_t RequestHandle::shard() const noexcept { return ticket_->shard; }

TicketState RequestHandle::poll() const noexcept {
  return ticket_->state.load(std::memory_order_acquire);
}

bool RequestHandle::cancel() const {
  return ticket_->service->cancel_ticket(ticket_);
}

TicketState RequestHandle::wait(std::optional<double> timeout_seconds) const {
  Ticket& t = *ticket_;
  const auto terminal = [&t] {
    return is_terminal(t.state.load(std::memory_order_acquire));
  };
  std::optional<Clock::time_point> deadline;
  if (timeout_seconds.has_value()) {
    svo::detail::require(
        std::isfinite(*timeout_seconds) && *timeout_seconds >= 0.0,
        "RequestHandle::wait: timeout_seconds must be finite and >= 0");
    deadline = deadline_after(*timeout_seconds);
  }
  std::unique_lock<std::mutex> lock(t.mu);
  if (deadline.has_value()) {
    t.cv.wait_until(lock, *deadline, terminal);
  } else {
    t.cv.wait(lock, terminal);
  }
  return t.state.load(std::memory_order_acquire);
}

const RequestOutcome& RequestHandle::outcome() const {
  Ticket& t = *ticket_;
  svo::detail::require(is_terminal(t.state.load(std::memory_order_acquire)),
                  "RequestHandle::outcome: ticket is not terminal (wait first)");
  return t.outcome;
}

FormationService::FormationService(const core::VoFormationMechanism& mechanism,
                                   ServiceOptions options)
    : options_((options.validate(), options)),
      mechanism_(mechanism),
      submitted_(registry_.counter("svc.submitted")),
      completed_(registry_.counter("svc.completed")),
      cancelled_(registry_.counter("svc.cancelled")),
      shed_(registry_.counter("svc.shed")),
      deferred_(registry_.counter("svc.deferred")),
      failed_(registry_.counter("svc.failed")),
      expired_(registry_.counter("svc.expired")),
      retries_(registry_.counter("svc.retries")),
      restarts_(registry_.counter("svc.restarts")),
      tick_aborts_(registry_.counter("svc.tick_aborts")),
      stalls_(registry_.counter("svc.stalls")),
      solver_runs_(registry_.counter("svc.solver_runs")),
      ticks_(registry_.counter("svc.ticks")),
      queue_us_(registry_.histogram("svc.queue_us")),
      solve_us_(registry_.histogram("svc.solve_us")),
      redelivery_depth_(registry_.histogram("svc.redelivery_depth")),
      paused_(options_.start_paused),
      pool_(options_.threads == 0 ? options_.shards : options_.threads) {
  // Shard ticks run the mechanism concurrently; ReputationCache is
  // single-threaded by contract, so a cache-carrying mechanism would
  // race on every full-graph compute. A cache belongs to one computing
  // thread (DESIGN.md §4i), never to a shared mechanism.
  svo::detail::require(
      mechanism.config().reputation.cache == nullptr,
      "FormationService: mechanism must not carry a ReputationCache "
      "(shards run concurrently; the cache is not thread-safe)");
  for (const SolverFault& f : options_.faults.solver_faults) {
    solver_faults_by_ticket_.emplace(f.ticket, f.attempts);
  }
  for (const TickFault& f : options_.faults.tick_faults) {
    tick_faults_by_ticket_.emplace(f.ticket, f);
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, registry_, "svc.shard" + std::to_string(i)));
  }
  if (options_.stats_window_seconds > 0.0) {
    telemetry_ = std::make_unique<Telemetry>(registry_, options_);
  }
}

FormationService::~FormationService() {
  // Everything admitted must reach a terminal state before the pool
  // joins — handles outliving the service still resolve.
  resume();
  drain();
  if (telemetry_) {
    // Flush the tail: close any due windows plus one final partial one
    // so the JSONL feed and SLO accounting cover the whole run.
    std::lock_guard<std::mutex> lock(telemetry_->mu);
    telemetry_->sampler.finish(clock_.seconds(), telemetry_->sink);
  }
}

RequestHandle FormationService::submit(const core::FormationRequest& request,
                                       const SubmitOptions& options) {
  // Typed scheduling-metadata validation (ServiceOptions style): reject
  // nonsense before a ticket id is burned.
  svo::detail::require(
      !std::isnan(options.deadline_seconds) && options.deadline_seconds >= 0.0,
      "SubmitOptions: deadline_seconds must be >= 0 (or infinity)");
  svo::detail::require(
      options.max_retries <= ServiceOptions::kMaxRetryBudget,
      "SubmitOptions: max_retries exceeds ServiceOptions::kMaxRetryBudget");

  const std::uint64_t id =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  auto ticket = std::make_shared<Ticket>();
  ticket->id = id;
  ticket->service = this;
  ticket->instance = &request.instance;
  ticket->trust = &request.trust;
  ticket->rng = request.rng;  // state snapshot; the caller's RNG is
                              // never advanced by the service
  ticket->candidates = request.candidates;
  ticket->warm = request.warm_start;
  ticket->priority = options.priority;
  ticket->max_retries = options.max_retries;
  ticket->outcome.ticket = id;

  // Stamp this ticket's injected faults (pure function of the plan and
  // the ticket id, so chaotic replays strike identically).
  if (const auto it = solver_faults_by_ticket_.find(id);
      it != solver_faults_by_ticket_.end()) {
    ticket->injected_failures = it->second;
  }
  if (const auto it = tick_faults_by_ticket_.find(id);
      it != tick_faults_by_ticket_.end()) {
    ticket->has_tick_fault = true;
    ticket->tick_fault_kind = it->second.kind;
    ticket->tick_fault_stall = it->second.stall_seconds;
  }

  // Deterministic routing: a pure function of (routing key | ticket id)
  // and the shard count — same-seed replays land every request on the
  // same shard.
  const std::size_t shard_index =
      (options.routing_key == SIZE_MAX ? id : options.routing_key) %
      options_.shards;
  ticket->shard = shard_index;
  ticket->outcome.shard = shard_index;
  Shard& shard = *shards_[shard_index];

  bool admitted = false;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.queue.size() < options_.queue_capacity) {
      admitted = true;
      ticket->admitted.reset();
      const double now = clock_.seconds();
      ticket->deadline_at = now + options.deadline_seconds;  // inf stays inf
      shard.queue.insert(ticket);
      shard.depth.add(1.0);
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      if (!paused_.load() && !shard.tick_scheduled && !shard.killed) {
        shard.tick_scheduled = true;
        schedule = true;
      }
    }
  }
  if (!admitted) {
    // Batched admission control: reject at the door, before any solver
    // work. Shed is terminal-dropped; Deferred is terminal-retryable.
    const TicketState state = options_.overload == OverloadPolicy::Shed
                                  ? TicketState::Shed
                                  : TicketState::Deferred;
    (state == TicketState::Shed ? shed_ : deferred_).add();
    {
      std::lock_guard<std::mutex> lock(ticket->mu);
      ticket->outcome.state = state;
      ticket->state.store(state, std::memory_order_release);
    }
    ticket->cv.notify_all();
    return RequestHandle(std::move(ticket));
  }
  submitted_.add();
  if (schedule) schedule_tick(shard);
  return RequestHandle(std::move(ticket));
}

bool FormationService::cancel_ticket(
    const std::shared_ptr<detail::Ticket>& ticket) {
  Ticket& t = *ticket;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.state.load(std::memory_order_acquire) != TicketState::Queued) {
      return false;  // dispatched, already terminal, or lost the race
    }
    // Queued covers both never-dispatched tickets and tickets parked
    // between a failed attempt and their scheduled retry — in both
    // cases the cancel wins and the solver never runs (again).
    cancelled_.add();  // accounted before the terminal publication
    t.outcome.state = TicketState::Cancelled;
    t.outcome.attempts = t.attempts;
    t.state.store(TicketState::Cancelled, std::memory_order_release);
  }
  t.cv.notify_all();
  // Pull the carcass out of its shard's queue so a parked retry cannot
  // keep the shard's tick loop alive. Racing ticks are fine either way:
  // a tick that pops it first observes the terminal state and skips it.
  {
    Shard& shard = *shards_[t.shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [lo, hi] = shard.queue.equal_range(ticket);
    for (auto it = lo; it != hi; ++it) {
      if (it->get() == &t) {
        shard.queue.erase(it);
        shard.depth.add(-1.0);
        break;
      }
    }
  }
  note_terminal();
  return true;
}

void FormationService::resume() {
  paused_.store(false);
  // Wake every shard that accumulated work while paused. Safe against
  // racing submits: either they see paused_ == false and schedule, or
  // this pass sees their enqueued ticket (mutex ordering).
  for (const auto& shard : shards_) {
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      if (!shard->queue.empty() && !shard->tick_scheduled && !shard->killed) {
        shard->tick_scheduled = true;
        schedule = true;
      }
    }
    if (schedule) schedule_tick(*shard);
  }
}

void FormationService::drain() {
  svo::detail::require(!paused_.load(),
                  "FormationService::drain: service is paused (resume first)");
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void FormationService::note_terminal() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Notify under the lock so a drain() between its predicate check
    // and wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void FormationService::schedule_tick(Shard& shard) {
  // Message-driven execution: a tick is a short-lived pool task, not a
  // parked thread — at most one per shard (tick_scheduled), so a pool
  // smaller than the shard count still serves every shard.
  auto ignored = pool_.submit([this, &shard] { run_tick(shard); });
  (void)ignored;  // completion is tracked per ticket, not per tick
}

void FormationService::restart_shard(Shard& shard) {
  // The supervisor path: the killed worker is gone (its tick returned
  // without rescheduling); a fresh pool task detects the kill, brings
  // the shard back with its queue intact, and reschedules its tick.
  auto ignored = pool_.submit([this, &shard] {
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.killed = false;
      if (!shard.queue.empty() && !paused_.load() && !shard.tick_scheduled) {
        shard.tick_scheduled = true;
        schedule = true;
      }
    }
    restarts_.add();
    shard.restarts.add();
    if (schedule) schedule_tick(shard);
  });
  (void)ignored;
}

void FormationService::run_tick(Shard& shard) {
  obs::Span tick_span("svc.shard.tick", "svc");
  if (tick_span.active()) {
    tick_span.arg("shard", static_cast<double>(shard.index));
  }
  // Drain up to batch_size tickets in (priority, deadline, admission)
  // order. Expired tickets are always eligible (they terminate without
  // a solve); unexpired tickets still inside their retry backoff are
  // skipped, and `earliest_ready` remembers when to look again.
  std::vector<std::shared_ptr<Ticket>> batch;
  double earliest_ready = std::numeric_limits<double>::infinity();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const double now = clock_.seconds();
    auto it = shard.queue.begin();
    while (it != shard.queue.end() && batch.size() < options_.batch_size) {
      Ticket& t = **it;
      if (t.deadline_at > now && t.ready_at > now) {
        earliest_ready = std::min(earliest_ready, t.ready_at);
        ++it;
        continue;
      }
      batch.push_back(*it);
      it = shard.queue.erase(it);
    }
    if (!batch.empty()) {
      shard.depth.add(-static_cast<double>(batch.size()));
    }
  }
  ticks_.add();
  shard.ticks.add();
  if (tick_span.active()) {
    tick_span.arg("batch", static_cast<double>(batch.size()));
  }

  // Injected tick faults, keyed by the tickets this batch carries and
  // fired exactly once per ticket. A stall delays the whole batch (the
  // straggler tick); an abort kills the shard before any of the batch
  // runs — the batch goes back intact and the supervisor restarts us.
  bool abort_tick = false;
  double stall_seconds = 0.0;
  for (const std::shared_ptr<Ticket>& ticket : batch) {
    if (!ticket->has_tick_fault || ticket->tick_fault_fired) continue;
    ticket->tick_fault_fired = true;  // owned by this (single) tick
    if (ticket->tick_fault_kind == TickFaultKind::Abort) {
      abort_tick = true;
    } else {
      stall_seconds = ticket->tick_fault_stall;
    }
    // At most one tick fault fires per tick: an aborted batch is
    // re-queued and re-popped, so any other marked ticket strikes a
    // *later* tick — fault counts stay independent of how tickets
    // happen to group into batches (the replay-identical invariant).
    break;
  }
  if (stall_seconds > 0.0) {
    stalls_.add();
    std::this_thread::sleep_until(
        deadline_after(stall_seconds).value_or(Clock::time_point::max()));
  }
  if (abort_tick) {
    tick_aborts_.add();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.depth.add(static_cast<double>(batch.size()));
      for (std::shared_ptr<Ticket>& ticket : batch) {
        shard.queue.insert(std::move(ticket));  // preserved, not lost
      }
      shard.killed = true;
      shard.tick_scheduled = false;  // the worker is dead
    }
    restart_shard(shard);
    return;
  }

  for (const std::shared_ptr<Ticket>& ticket : batch) {
    Ticket& t = *ticket;
    const double now = clock_.seconds();
    if (t.deadline_at <= now) {
      // Deadline-aware scheduling: expire *before* wasting a solve.
      std::lock_guard<std::mutex> lock(t.mu);
      if (t.state.load(std::memory_order_acquire) != TicketState::Queued) {
        continue;  // cancelled while queued
      }
      expired_.add();
      shard.expired.add();
      t.outcome.state = TicketState::DeadlineExceeded;
      t.outcome.attempts = t.attempts;
      t.outcome.queue_seconds = t.admitted.seconds();
      t.state.store(TicketState::DeadlineExceeded, std::memory_order_release);
      t.cv.notify_all();
      note_terminal();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(t.mu);
      if (t.state.load(std::memory_order_acquire) != TicketState::Queued) {
        continue;  // cancelled while queued: its solver never runs
      }
      t.state.store(TicketState::Running, std::memory_order_release);
    }
    const double queue_seconds = t.admitted.seconds();
    ++t.attempts;
    if (t.outcome.dispatch_seq == 0) {
      t.outcome.dispatch_seq =
          next_dispatch_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    const util::WallTimer solve_timer;
    core::MechanismResult result;
    util::Xoshiro256 attempt_rng = t.rng;  // pristine snapshot per attempt
    bool attempt_ok = true;
    std::string attempt_error;
    {
      obs::Span solve_span("svc.request.solve", "svc");
      if (solve_span.active()) {
        solve_span.arg("ticket", static_cast<double>(t.id));
        solve_span.arg("shard", static_cast<double>(shard.index));
        solve_span.arg("attempt", static_cast<double>(t.attempts));
      }
      try {
        if (t.injected_failures == SolverFault::kPoison ||
            t.attempts <= t.injected_failures) {
          throw InjectedFault("injected solver fault (ticket " +
                              std::to_string(t.id) + ", attempt " +
                              std::to_string(t.attempts) + ")");
        }
        result = mechanism_.run(core::FormationRequest{
            *t.instance, *t.trust, attempt_rng, t.candidates, t.warm});
      } catch (const std::exception& e) {
        attempt_ok = false;
        attempt_error = e.what();
      }
    }
    const double solve_seconds = solve_timer.seconds();
    // All accounting happens-before the terminal publication: a waiter
    // woken by the state change must already see consistent stats().
    solver_runs_.add();

    if (!attempt_ok) {
      if (t.attempts <= t.max_retries) {
        // Budget left: park the ticket back in its queue with capped
        // exponential backoff. State returns to Queued *before* the
        // re-insert, so a cancel landing between this failed attempt
        // and the retry finds a cancellable ticket and wins.
        retries_.add();
        shard.retries.add();
        redelivery_depth_.observe(static_cast<double>(t.attempts));
        const double backoff = std::min(
            options_.retry_backoff_cap_seconds,
            options_.retry_backoff_base_seconds *
                static_cast<double>(1ULL << std::min<std::uint32_t>(
                                        t.attempts - 1, 62)));
        {
          std::lock_guard<std::mutex> lock(t.mu);
          t.state.store(TicketState::Queued, std::memory_order_release);
        }
        {
          // Re-check under the shard lock: a cancel that landed between
          // the state flip above and this insert already finalized the
          // ticket (and found nothing to erase) — don't resurrect it.
          std::lock_guard<std::mutex> lock(shard.mu);
          if (t.state.load(std::memory_order_acquire) ==
              TicketState::Queued) {
            t.ready_at = clock_.seconds() + backoff;
            shard.queue.insert(ticket);  // retries bypass admission control
            shard.depth.add(1.0);
          }
        }
        continue;
      }
      // Budget exhausted: typed terminal failure, never a hung handle.
      failed_.add();
      redelivery_depth_.observe(static_cast<double>(t.attempts));
      {
        std::lock_guard<std::mutex> lock(t.mu);
        t.outcome.state = TicketState::Failed;
        t.outcome.attempts = t.attempts;
        t.outcome.error = std::move(attempt_error);
        t.outcome.queue_seconds = queue_seconds;
        t.outcome.solve_seconds = solve_seconds;
        t.state.store(TicketState::Failed, std::memory_order_release);
      }
      t.cv.notify_all();
      note_terminal();
      continue;
    }

    shard.solved.add();
    queue_us_.observe(queue_seconds * 1e6);
    solve_us_.observe(solve_seconds * 1e6);
    completed_.add();
    {
      std::lock_guard<std::mutex> lock(t.mu);
      t.outcome.result = std::move(result);
      t.outcome.rng_probe = attempt_rng();  // determinism probe: post-run
      t.outcome.attempts = t.attempts;
      t.outcome.queue_seconds = queue_seconds;
      t.outcome.solve_seconds = solve_seconds;
      t.outcome.state = TicketState::Done;
      t.state.store(TicketState::Done, std::memory_order_release);
    }
    t.cv.notify_all();
    note_terminal();
  }

  // Telemetry sampler rides the tick loop: no timer thread, and a
  // telemetry-off service pays one null-pointer test here.
  maybe_sample();

  // Yield the pool thread between batches; reschedule only while work
  // remains (and keep tick_scheduled true across the hand-off so a
  // racing submit cannot double-schedule). When everything pending is
  // parked in retry backoff, nap until the earliest ready time so the
  // hand-off loop stays cool without a timer thread.
  bool more = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.queue.empty() && !paused_.load() && !shard.killed) {
      more = true;
    } else {
      shard.tick_scheduled = false;
    }
  }
  if (more) {
    if (batch.empty() && std::isfinite(earliest_ready)) {
      const double nap =
          std::clamp(earliest_ready - clock_.seconds(), 0.0, 0.002);
      if (nap > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(nap));
      }
    }
    schedule_tick(shard);
  }
}

void FormationService::maybe_sample() {
  if (!telemetry_) return;  // the entire telemetry-off cost
  Telemetry& tel = *telemetry_;
  std::unique_lock<std::mutex> lock(tel.mu, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another tick is sampling; skip
  tel.sampler.advance(clock_.seconds(), tel.sink);
}

ServiceHealth FormationService::health(std::size_t last_n) {
  maybe_sample();
  ServiceHealth h;
  h.now_seconds = clock_.seconds();
  h.telemetry_enabled = telemetry_ != nullptr;
  h.outstanding = outstanding_.load(std::memory_order_acquire);
  h.shards.reserve(shards_.size());
  bool any_full = false;
  for (const auto& shard : shards_) {
    ShardHealth sh;
    sh.index = shard->index;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      sh.queue_depth = shard->queue.size();
      sh.killed = shard->killed;
    }
    sh.ticks = shard->ticks.value();
    sh.solved = shard->solved.value();
    sh.retries = shard->retries.value();
    sh.expired = shard->expired.value();
    sh.restarts = shard->restarts.value();
    any_full = any_full || sh.queue_depth >= options_.queue_capacity;
    h.shards.push_back(sh);
  }
  bool recent_rejects = false;
  obs::Histogram::Snapshot queue;
  obs::Histogram::Snapshot solve;
  if (telemetry_) {
    std::lock_guard<std::mutex> lock(telemetry_->mu);
    const obs::TimeSeries& series = telemetry_->sampler.series();
    h.windows_closed = series.windows_closed();
    const obs::Window roll = series.rollup(last_n);
    queue = roll.histogram("svc.queue_us");
    solve = roll.histogram("svc.solve_us");
    h.slos = telemetry_->sampler.slo().status();
    recent_rejects =
        roll.counter("svc.shed") + roll.counter("svc.deferred") > 0;
  } else {
    queue = queue_us_.snapshot();
    solve = solve_us_.snapshot();
  }
  h.queue_p50_us = queue.quantile(0.50);
  h.queue_p99_us = queue.quantile(0.99);
  h.solve_p50_us = solve.quantile(0.50);
  h.solve_p99_us = solve.quantile(0.99);
  h.overloaded = any_full || recent_rejects;
  return h;
}

ServiceStats FormationService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.value();
  s.completed = completed_.value();
  s.cancelled = cancelled_.value();
  s.shed = shed_.value();
  s.deferred = deferred_.value();
  s.failed = failed_.value();
  s.expired = expired_.value();
  s.retries = retries_.value();
  s.restarts = restarts_.value();
  s.tick_aborts = tick_aborts_.value();
  s.stalls = stalls_.value();
  s.solver_runs = solver_runs_.value();
  s.ticks = ticks_.value();
  const obs::Histogram::Snapshot queue = queue_us_.snapshot();
  const obs::Histogram::Snapshot solve = solve_us_.snapshot();
  const obs::Histogram::Snapshot redelivery = redelivery_depth_.snapshot();
  s.queue_p50_us = queue.quantile(0.50);
  s.queue_p99_us = queue.quantile(0.99);
  s.solve_p50_us = solve.quantile(0.50);
  s.solve_p99_us = solve.quantile(0.99);
  s.redelivery_max = redelivery.max;
  return s;
}

}  // namespace svo::svc
