#include "sim/protocol.hpp"

#include <cmath>
#include <optional>

#include "obs/trace.hpp"

namespace svo::sim {

void ProtocolOptions::validate() const {
  latency.validate();
  detail::require(std::isfinite(gsp_processing_seconds) &&
                      gsp_processing_seconds >= 0.0,
                  "ProtocolOptions: gsp_processing_seconds must be finite "
                  "and >= 0");
  detail::require(std::isfinite(report_timeout_seconds) &&
                      report_timeout_seconds >= 0.0,
                  "ProtocolOptions: report_timeout_seconds must be finite "
                  "and >= 0");
  detail::require(std::isfinite(award_timeout_seconds) &&
                      award_timeout_seconds >= 0.0,
                  "ProtocolOptions: award_timeout_seconds must be finite "
                  "and >= 0");
  detail::require(std::isfinite(backoff_multiplier) &&
                      backoff_multiplier >= 1.0,
                  "ProtocolOptions: backoff_multiplier must be >= 1");
  detail::require(std::isfinite(quorum_fraction) && quorum_fraction > 0.0 &&
                      quorum_fraction <= 1.0,
                  "ProtocolOptions: quorum_fraction must be in (0, 1]");
  faults.validate();
  detail::require(!faults.enabled() || (report_timeout_seconds > 0.0 &&
                                        award_timeout_seconds > 0.0),
                  "ProtocolOptions: faults require nonzero phase timeouts "
                  "(a lossy network would hang the trusted party)");
}

std::vector<des::CrashWindow> gsp_crash_schedule(
    std::vector<des::CrashWindow> gsp_windows) {
  for (des::CrashWindow& w : gsp_windows) ++w.node;
  return gsp_windows;
}

namespace {

constexpr std::size_t kTrustedParty = 0;

std::size_t gsp_node(std::size_t g) { return g + 1; }

/// Fault-tolerant trusted-party state machine. Phases:
///
///   Collecting -> Deciding -> Awarding -> Done
///                    ^            |
///                    +-- repair --+   (member failed to acknowledge)
///
/// Every timer captures the epoch at arming time; any phase transition
/// bumps the epoch, so stale timers fire as no-ops. Timers never draw
/// randomness, which keeps the fault-free run bit-identical to the
/// lossless protocol.
class TrustedParty {
 public:
  TrustedParty(const core::VoFormationMechanism& mechanism,
               const ip::AssignmentInstance& inst,
               const trust::TrustGraph& trust, util::Xoshiro256& rng,
               const ProtocolOptions& opt, des::Simulator& sim,
               des::Network& net, obs::MetricRegistry& reg,
               DistributedRunResult& result)
      : mechanism_(mechanism),
        inst_(inst),
        trust_(trust),
        rng_(rng),
        opt_(opt),
        sim_(sim),
        net_(net),
        result_(result),
        retries_(reg.counter("protocol.retries")),
        timeouts_(reg.counter("protocol.timeouts_fired")),
        repairs_(reg.counter("protocol.repair_rounds")),
        report_phase_s_(reg.gauge("protocol.report_phase_seconds")),
        completion_s_(reg.gauge("protocol.completion_seconds")),
        m_(inst.num_gsps()),
        reported_(m_, 0),
        acked_(m_, 0) {
    const double q = opt_.quorum_fraction * static_cast<double>(m_);
    quorum_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q)));
  }

  void start() {
    set_phase(Phase::Collecting, "protocol.phase.collecting");
    for (std::size_t g = 0; g < m_; ++g) send_cfp(g);
    arm_report_timer();
  }

  void on_message(const des::Message& msg) {
    note_event();
    if (msg.type == "REPORT") {
      on_report(msg.from - 1);
    } else if (msg.type == "ACK") {
      on_ack(msg.from - 1);
    }
  }

  /// Record that simulated time advanced through a protocol event (used
  /// for the completion fallback when no award round finishes).
  void note_event() { last_event_ = sim_.now(); }
  [[nodiscard]] double last_event() const noexcept { return last_event_; }

  /// True once the protocol reached a terminal outcome (a mechanism
  /// decision, or an explicit formation failure).
  [[nodiscard]] bool decided() const noexcept {
    return mechanism_ran_ || result_.protocol.formation_failed;
  }

 private:
  enum class Phase { Collecting, Deciding, Awarding, Done };

  /// Phase transition. Functionally this is just `phase_ = p`; when the
  /// recorder is enabled it additionally closes the previous phase as a
  /// trace span (real elapsed time — the DES runs synchronously, so
  /// Deciding's real duration is dominated by the mechanism run) with
  /// the simulated clock and repair round attached as annotations.
  /// `name == nullptr` marks a terminal phase that opens no new span.
  ///
  /// Phase events carry causal ids: every message the TP sends is
  /// stamped with the current phase id (Message::trace_parent), and the
  /// phases themselves parent on the enclosing core.protocol.run span —
  /// so the exported DAG reads run -> phase -> message -> deliver ->
  /// reply, per round. Phases cannot use the thread context stack (a
  /// transition fires *inside* the deliver span of the message that
  /// triggered it), hence the manual id bookkeeping.
  void set_phase(Phase p, const char* name) {
    obs::Recorder& rec = obs::Recorder::instance();
    if (rec.enabled()) {
      const std::uint64_t now = obs::now_micros();
      if (root_ctx_ == 0) root_ctx_ = obs::current_span_id();
      if (phase_name_ != nullptr) {
        obs::TraceEvent ev;
        ev.name = phase_name_;
        ev.category = "protocol";
        ev.id = phase_id_;
        ev.parent = root_ctx_;
        ev.start_us = phase_started_us_;
        ev.duration_us = now - phase_started_us_;
        ev.args.emplace_back("sim_now_s", sim_.now());
        // The round the phase *opened* in (begin_repair bumps the
        // counter before transitioning, so close-time would mislabel
        // the final phase of each round).
        ev.args.emplace_back("round", static_cast<double>(phase_round_));
        rec.record(std::move(ev));
      }
      phase_started_us_ = now;
      phase_id_ = name != nullptr ? rec.next_id() : 0;
      phase_round_ = repair_rounds_used_;
    }
    phase_ = p;
    phase_name_ = name;
  }

  /// Trace context for messages this phase originates (0 = untraced).
  [[nodiscard]] std::uint64_t phase_ctx() const noexcept {
    return phase_id_;
  }

  // --- wire helpers -----------------------------------------------------

  // TP-originated messages parent on the current phase event: most are
  // sent from timer / post-solve callbacks where no span is open, so
  // the network's current-span fallback would leave them causally
  // rootless (re-sends after a timeout in particular must still attach
  // to their phase for per-round critical paths).
  void send_cfp(std::size_t g) {
    des::Message cfp;
    cfp.from = kTrustedParty;
    cfp.to = gsp_node(g);
    cfp.type = "CFP";
    cfp.bytes = opt_.envelope_bytes + 32;  // program metadata
    cfp.trace_parent = phase_ctx();
    net_.send(std::move(cfp));
  }

  void send_award(std::size_t g) {
    des::Message award;
    award.from = kTrustedParty;
    award.to = gsp_node(g);
    award.type = "AWARD";
    award.bytes = 8 * tasks_per_member_[g] + opt_.envelope_bytes;
    award.trace_parent = phase_ctx();
    net_.send(std::move(award));
  }

  void send_release(std::size_t g) {
    des::Message release;
    release.from = kTrustedParty;
    release.to = gsp_node(g);
    release.type = "RELEASE";
    release.bytes = opt_.envelope_bytes;
    release.trace_parent = phase_ctx();
    net_.send(std::move(release));
  }

  // --- phase 2: report collection ---------------------------------------

  void on_report(std::size_t g) {
    if (phase_ != Phase::Collecting || g >= m_) return;  // late/duplicate
    if (reported_[g] != 0) return;                       // duplicate report
    reported_[g] = 1;
    if (++reports_ == m_) decide();
  }

  void arm_report_timer() {
    if (opt_.report_timeout_seconds <= 0.0) return;  // hardening disabled
    const double delay =
        opt_.report_timeout_seconds *
        std::pow(opt_.backoff_multiplier,
                 static_cast<double>(report_attempt_));
    const std::size_t expect = epoch_;
    sim_.schedule(delay, [this, expect] {
      if (epoch_ != expect || phase_ != Phase::Collecting) return;  // stale
      timeouts_.add();
      note_event();
      if (reports_ >= quorum_) {
        decide();
        return;
      }
      if (report_attempt_ < opt_.max_retries) {
        ++report_attempt_;
        for (std::size_t g = 0; g < m_; ++g) {
          if (reported_[g] != 0) continue;
          send_cfp(g);
          retries_.add();
        }
        arm_report_timer();
        return;
      }
      give_up();  // quorum never reached
    });
  }

  // --- phase 3: decision (and repair re-decisions) -----------------------

  void decide() {
    ++epoch_;
    set_phase(Phase::Deciding, "protocol.phase.deciding");
    report_phase_s_.set(sim_.now());
    result_.protocol.degraded_quorum = reports_ < m_;
    game::Coalition responsive;
    for (std::size_t g = 0; g < m_; ++g) {
      if (reported_[g] != 0) responsive = responsive.with(g);
    }
    candidates_ = responsive;
    run_formation();
  }

  /// Run the mechanism over the current candidate pool; its measured
  /// compute time advances the simulated clock before notices go out.
  void run_formation() {
    const core::MechanismResult mr = mechanism_.run(
        core::FormationRequest{inst_, trust_, rng_, candidates_});
    mechanism_ran_ = true;
    result_.mechanism = mr;
    const std::size_t expect = epoch_;
    sim_.schedule(mr.elapsed_seconds, [this, expect] {
      if (epoch_ != expect || phase_ != Phase::Deciding) return;  // stale
      note_event();
      dispatch_notices();
    });
  }

  // --- phase 4: notices, awards, acknowledgments -------------------------

  void dispatch_notices() {
    const core::MechanismResult& r = result_.mechanism;
    if (repair_rounds_used_ == 0) {
      // Release every GSP that was removed along the way.
      for (const auto& it : r.journal) {
        if (it.removed_gsp == SIZE_MAX) continue;
        if (r.selected.contains(it.removed_gsp)) continue;
        send_release(it.removed_gsp);
      }
    } else {
      // Repair round: release previous members no longer selected
      // (crashed ones simply lose the message).
      for (const std::size_t g : prev_members_) {
        if (!r.selected.contains(g)) send_release(g);
      }
    }
    if (!r.success) {
      // Formation infeasible over the current pool: explicit failure.
      result_.protocol.formation_failed = true;
      ++epoch_;
      set_phase(Phase::Done, nullptr);
      return;
    }
    ++epoch_;
    set_phase(Phase::Awarding, "protocol.phase.awarding");
    members_ = r.selected.members();
    acked_.assign(m_, 0);
    acks_ = 0;
    award_attempt_ = 0;
    tasks_per_member_.assign(m_, 0);
    for (const std::size_t g : r.mapping) ++tasks_per_member_[g];
    for (const std::size_t g : members_) send_award(g);
    arm_award_timer();
  }

  void on_ack(std::size_t g) {
    if (phase_ != Phase::Awarding || g >= m_) return;      // stale round
    if (!result_.mechanism.selected.contains(g)) return;   // stale member
    if (acked_[g] != 0) return;                            // duplicate ack
    acked_[g] = 1;
    if (++acks_ == members_.size()) {
      completion_s_.set(sim_.now());
      ++epoch_;
      set_phase(Phase::Done, nullptr);
    }
  }

  void arm_award_timer() {
    if (opt_.award_timeout_seconds <= 0.0) return;  // hardening disabled
    const double delay =
        opt_.award_timeout_seconds *
        std::pow(opt_.backoff_multiplier, static_cast<double>(award_attempt_));
    const std::size_t expect = epoch_;
    sim_.schedule(delay, [this, expect] {
      if (epoch_ != expect || phase_ != Phase::Awarding) return;  // stale
      timeouts_.add();
      note_event();
      if (award_attempt_ < opt_.max_retries) {
        ++award_attempt_;
        for (const std::size_t g : members_) {
          if (acked_[g] != 0) continue;
          send_award(g);
          retries_.add();
        }
        arm_award_timer();
        return;
      }
      // Retries exhausted: the silent members are declared failed and
      // the VO is repaired over the survivors.
      for (const std::size_t g : members_) {
        if (acked_[g] == 0) failed_ = failed_.with(g);
      }
      begin_repair();
    });
  }

  // --- VO repair ---------------------------------------------------------

  void begin_repair() {
    prev_members_ = members_;
    for (const std::size_t g : failed_.members()) {
      candidates_ = candidates_.without(g);
    }
    if (repair_rounds_used_ >= opt_.max_repair_rounds || candidates_.empty()) {
      give_up();
      return;
    }
    ++repair_rounds_used_;
    repairs_.add();
    ++epoch_;
    set_phase(Phase::Deciding, "protocol.phase.deciding");
    run_formation();
  }

  /// Terminal failure: quorum unreachable, no survivors, or repair
  /// budget exhausted. Reported explicitly — never a hang.
  void give_up() {
    result_.protocol.formation_failed = true;
    result_.mechanism.success = false;  // no working VO was handed over
    // Best-effort release of anyone still holding an award.
    for (const std::size_t g : members_) send_release(g);
    completion_s_.set(sim_.now());
    ++epoch_;
    set_phase(Phase::Done, nullptr);
  }

  const core::VoFormationMechanism& mechanism_;
  const ip::AssignmentInstance& inst_;
  const trust::TrustGraph& trust_;
  util::Xoshiro256& rng_;
  const ProtocolOptions& opt_;
  des::Simulator& sim_;
  des::Network& net_;
  DistributedRunResult& result_;

  // Fault/latency accounting lives in the run's MetricRegistry (the
  // observability spine); run_distributed copies the final values into
  // ProtocolMetrics. Cached references — registry entries are stable.
  obs::Counter& retries_;
  obs::Counter& timeouts_;
  obs::Counter& repairs_;
  obs::Gauge& report_phase_s_;
  obs::Gauge& completion_s_;

  const std::size_t m_;
  std::size_t quorum_ = 1;
  Phase phase_ = Phase::Collecting;
  const char* phase_name_ = nullptr;
  std::uint64_t phase_started_us_ = 0;
  std::uint64_t phase_id_ = 0;
  std::uint64_t root_ctx_ = 0;
  std::size_t phase_round_ = 0;
  std::size_t epoch_ = 0;
  bool mechanism_ran_ = false;
  double last_event_ = 0.0;

  // Report phase.
  std::vector<char> reported_;
  std::size_t reports_ = 0;
  std::size_t report_attempt_ = 0;

  // Decision / repair.
  game::Coalition candidates_;
  game::Coalition failed_;
  std::size_t repair_rounds_used_ = 0;

  // Award phase.
  std::vector<std::size_t> members_;
  std::vector<std::size_t> prev_members_;
  std::vector<std::size_t> tasks_per_member_;
  std::vector<char> acked_;
  std::size_t acks_ = 0;
  std::size_t award_attempt_ = 0;
};

}  // namespace

DistributedRunResult run_distributed(
    const core::VoFormationMechanism& mechanism,
    const ip::AssignmentInstance& inst, const trust::TrustGraph& trust,
    util::Xoshiro256& rng, const ProtocolOptions& options) {
  options.validate();
  obs::Span span("core.protocol.run", "core");
  const std::size_t m = inst.num_gsps();
  const std::size_t n = inst.num_tasks();

  des::Simulator sim;
  des::Network net(sim, m + 1, options.latency, options.network_seed);
  std::optional<des::FaultInjector> injector;
  if (options.faults.enabled()) {
    injector.emplace(options.faults);
    net.set_fault_injector(&*injector);
  }

  // The protocol's fault/latency counters live in a per-run registry so
  // they flow through the same obs primitives as every other subsystem;
  // a local registry (not the global recorder's) keeps concurrent
  // sweeps from mixing their per-run numbers. Always on — ProtocolMetrics
  // is part of the functional result, not optional telemetry.
  obs::MetricRegistry preg;
  DistributedRunResult result;
  TrustedParty tp(mechanism, inst, trust, rng, options, sim, net, preg,
                  result);

  // GSP behaviour: answer CFPs with a report after local processing;
  // acknowledge awards; ignore releases. Duplicates (protocol re-sends)
  // are answered again — the TP deduplicates.
  for (std::size_t g = 0; g < m; ++g) {
    net.set_handler(gsp_node(g), [&, g](const des::Message& msg) {
      tp.note_event();
      if (msg.type == "CFP") {
        // The report is sent from a *scheduled* callback, after the
        // CFP's deliver span has closed — capture that span id now so
        // the CFP -> REPORT causal edge survives the async boundary.
        const std::uint64_t ctx = obs::current_span_id();
        sim.schedule(options.gsp_processing_seconds, [&, g, ctx] {
          des::Message report;
          report.from = gsp_node(g);
          report.to = kTrustedParty;
          report.type = "REPORT";
          // Trust row (8m) + cost and time columns (16n) + envelope.
          report.bytes = 8 * m + 16 * n + options.envelope_bytes;
          report.trace_parent = ctx;
          net.send(std::move(report));
        });
      } else if (msg.type == "AWARD") {
        des::Message ack;
        ack.from = gsp_node(g);
        ack.to = kTrustedParty;
        ack.type = "ACK";
        ack.bytes = options.envelope_bytes;
        net.send(std::move(ack));
      }
      // RELEASE needs no reply.
    });
  }
  net.set_handler(kTrustedParty,
                  [&](const des::Message& msg) { tp.on_message(msg); });

  tp.start();
  (void)sim.run();

  detail::require(tp.decided(),
                  "run_distributed: protocol never reached the decision");

  // Fold the per-run registry back into the plain ProtocolMetrics struct
  // callers consume.
  result.protocol.retries =
      static_cast<std::size_t>(preg.counter_value("protocol.retries"));
  result.protocol.timeouts_fired =
      static_cast<std::size_t>(preg.counter_value("protocol.timeouts_fired"));
  result.protocol.repair_rounds =
      static_cast<std::size_t>(preg.counter_value("protocol.repair_rounds"));
  result.protocol.report_phase_seconds =
      preg.gauge_value("protocol.report_phase_seconds");
  result.protocol.completion_seconds =
      preg.gauge_value("protocol.completion_seconds");
  if (result.protocol.completion_seconds == 0.0) {
    // No award round finished (mechanism failed): completion = the last
    // protocol event (the final release delivery / decision dispatch).
    result.protocol.completion_seconds = tp.last_event();
  }
  result.protocol.messages = net.messages_sent();
  result.protocol.bytes = net.bytes_sent();
  if (injector.has_value()) {
    result.protocol.drops_observed = injector->stats().total_drops();
  }

  if (span.active()) {
    span.arg("gsps", static_cast<double>(m));
    span.arg("tasks", static_cast<double>(n));
    span.arg("messages", static_cast<double>(result.protocol.messages));
    span.arg("bytes", static_cast<double>(result.protocol.bytes));
    span.arg("retries", static_cast<double>(result.protocol.retries));
    span.arg("sim_completion_s", result.protocol.completion_seconds);
    span.arg("outcome",
             result.protocol.formation_failed ? "failed" : "formed");
    obs::MetricRegistry& g = obs::Recorder::instance().metrics();
    g.counter("core.protocol.runs").add();
    g.counter("core.protocol.messages").add(result.protocol.messages);
    g.counter("core.protocol.bytes").add(result.protocol.bytes);
    g.counter("core.protocol.retries").add(result.protocol.retries);
    g.counter("core.protocol.timeouts_fired")
        .add(result.protocol.timeouts_fired);
    g.counter("core.protocol.repair_rounds")
        .add(result.protocol.repair_rounds);
    g.counter("core.protocol.drops_observed")
        .add(result.protocol.drops_observed);
    if (result.protocol.formation_failed) {
      g.counter("core.protocol.formation_failures").add();
    }
    g.histogram("core.protocol.sim_completion_seconds")
        .observe(result.protocol.completion_seconds);
  }
  return result;
}

}  // namespace svo::sim
