/// The observability invariant: enabling the recorder must not change a
/// single bit of any functional result. Spans read the clock and append
/// to thread-local buffers — they must never touch the mechanism's RNG,
/// the solver's search order, or the protocol's message sequence.
///
/// Strategy: run each entry point twice from identical seeds — once with
/// the recorder disabled, once enabled — and compare every functional
/// field exactly (operator== on doubles intentionally: "close" is a
/// bug here). Only elapsed wall-clock time may differ. An RNG probe
/// after each run additionally proves instrumentation consumed zero
/// random draws.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/mechanism.hpp"
#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "obs/trace.hpp"
#include "sim/protocol.hpp"
#include "tests/ip/test_instances.hpp"
#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"
#include "util/rng.hpp"

namespace svo::core {
namespace {

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

Fixture make_fixture(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(m, n, rng);
  f.trust = trust::random_trust_graph(m, /*p=*/0.4, rng);
  return f;
}

/// Exact equality over every functional MechanismResult field. Wall
/// clock (elapsed_seconds) is the one legitimate difference.
void expect_bit_identical(const MechanismResult& off,
                          const MechanismResult& on) {
  EXPECT_EQ(off.success, on.success);
  EXPECT_EQ(off.selected.bits(), on.selected.bits());
  EXPECT_EQ(off.mapping, on.mapping);
  EXPECT_EQ(off.cost, on.cost);
  EXPECT_EQ(off.value, on.value);
  EXPECT_EQ(off.payoff_share, on.payoff_share);
  EXPECT_EQ(off.avg_global_reputation, on.avg_global_reputation);
  EXPECT_EQ(off.global_reputation, on.global_reputation);
  EXPECT_EQ(off.stats.nodes, on.stats.nodes);
  EXPECT_EQ(off.stats.status, on.stats.status);
  EXPECT_EQ(off.stats.warm_start_used, on.stats.warm_start_used);
  EXPECT_EQ(off.stats.repair_moves, on.stats.repair_moves);
  ASSERT_EQ(off.journal.size(), on.journal.size());
  for (std::size_t i = 0; i < off.journal.size(); ++i) {
    const IterationRecord& a = off.journal[i];
    const IterationRecord& b = on.journal[i];
    EXPECT_EQ(a.coalition.bits(), b.coalition.bits()) << "iteration " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "iteration " << i;
    EXPECT_EQ(a.cost, b.cost) << "iteration " << i;
    EXPECT_EQ(a.value, b.value) << "iteration " << i;
    EXPECT_EQ(a.payoff_share, b.payoff_share) << "iteration " << i;
    EXPECT_EQ(a.avg_global_reputation, b.avg_global_reputation)
        << "iteration " << i;
    EXPECT_EQ(a.removed_gsp, b.removed_gsp) << "iteration " << i;
    EXPECT_EQ(a.stats.nodes, b.stats.nodes) << "iteration " << i;
  }
}

/// Recorder state is process-global: force a known state around each
/// test and leave it disabled afterwards.
class TracingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Recorder::instance().disable();
    obs::Recorder::instance().clear();
  }
  void TearDown() override {
    obs::Recorder::instance().disable();
    obs::Recorder::instance().clear();
  }
};

/// Runs `mechanism` twice from the same seed — recorder off, then on —
/// and checks results bit for bit, plus an RNG probe: the next draws
/// after each run must match, proving instrumentation consumed no
/// randomness.
void check_mechanism(const VoFormationMechanism& mechanism,
                     WarmStartPolicy warm) {
  const Fixture f = make_fixture(6, 18, 0xC0FFEE);

  util::Xoshiro256 rng_off(42);
  obs::Recorder::instance().disable();
  const MechanismResult off = mechanism.run(
      FormationRequest{f.instance, f.trust, rng_off, {}, warm});
  const std::uint64_t probe_off[3] = {rng_off(), rng_off(), rng_off()};

  util::Xoshiro256 rng_on(42);
  obs::Recorder::instance().enable();
  const MechanismResult on = mechanism.run(
      FormationRequest{f.instance, f.trust, rng_on, {}, warm});
  const std::uint64_t probe_on[3] = {rng_on(), rng_on(), rng_on()};
  obs::Recorder::instance().disable();

  expect_bit_identical(off, on);
  EXPECT_EQ(probe_off[0], probe_on[0]);
  EXPECT_EQ(probe_off[1], probe_on[1]);
  EXPECT_EQ(probe_off[2], probe_on[2]);

  // The traced run must actually have produced spans — otherwise this
  // test proves nothing.
  EXPECT_GT(obs::Recorder::instance().event_count(), 0u);
}

TEST_F(TracingEquivalenceTest, TvofColdIsBitIdentical) {
  const ip::BnbAssignmentSolver solver;
  check_mechanism(TvofMechanism(solver), WarmStartPolicy::Off);
}

TEST_F(TracingEquivalenceTest, TvofWarmIsBitIdentical) {
  const ip::BnbAssignmentSolver solver;
  check_mechanism(TvofMechanism(solver), WarmStartPolicy::Incremental);
}

TEST_F(TracingEquivalenceTest, RvofIsBitIdentical) {
  const ip::BnbAssignmentSolver solver;
  check_mechanism(RvofMechanism(solver), WarmStartPolicy::Incremental);
}

TEST_F(TracingEquivalenceTest, TracedRunEmitsExpectedSpanNames) {
  const Fixture f = make_fixture(5, 15, 7);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(3);
  obs::Recorder::instance().enable();
  (void)tvof.run(FormationRequest{f.instance, f.trust, rng});
  obs::Recorder::instance().disable();

  bool saw_run = false, saw_iteration = false, saw_reputation = false;
  for (const obs::TraceEvent& ev :
       obs::Recorder::instance().snapshot_events()) {
    if (ev.name == "core.mechanism.run") saw_run = true;
    if (ev.name == "core.mechanism.iteration") saw_iteration = true;
    if (ev.name == "trust.reputation.compute") saw_reputation = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_iteration);
  EXPECT_TRUE(saw_reputation);
}

/// The protocol path: ProtocolMetrics are built from the per-run local
/// registry, so they must be populated identically whether or not the
/// global recorder is on.
TEST_F(TracingEquivalenceTest, DistributedRunIsBitIdentical) {
  const Fixture f = make_fixture(5, 15, 0xFEED);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);

  util::Xoshiro256 rng_off(17);
  obs::Recorder::instance().disable();
  const sim::DistributedRunResult off =
      sim::run_distributed(tvof, f.instance, f.trust, rng_off);
  const std::uint64_t probe_off = rng_off();

  util::Xoshiro256 rng_on(17);
  obs::Recorder::instance().enable();
  const sim::DistributedRunResult on =
      sim::run_distributed(tvof, f.instance, f.trust, rng_on);
  const std::uint64_t probe_on = rng_on();
  obs::Recorder::instance().disable();

  expect_bit_identical(off.mechanism, on.mechanism);
  EXPECT_EQ(probe_off, probe_on);

  EXPECT_EQ(off.protocol.messages, on.protocol.messages);
  EXPECT_EQ(off.protocol.bytes, on.protocol.bytes);
  // completion_seconds is intentionally NOT compared exactly: the
  // protocol advances the simulated clock by the *measured* compute
  // time of the mechanism run (sim/protocol.hpp), so it is
  // wall-clock-derived like elapsed_seconds. The report phase ends
  // before the mechanism runs, so it stays purely simulated and exact.
  EXPECT_EQ(off.protocol.report_phase_seconds,
            on.protocol.report_phase_seconds);
  EXPECT_EQ(off.protocol.retries, on.protocol.retries);
  EXPECT_EQ(off.protocol.timeouts_fired, on.protocol.timeouts_fired);
  EXPECT_EQ(off.protocol.drops_observed, on.protocol.drops_observed);
  EXPECT_EQ(off.protocol.repair_rounds, on.protocol.repair_rounds);
  EXPECT_EQ(off.protocol.degraded_quorum, on.protocol.degraded_quorum);
  EXPECT_EQ(off.protocol.formation_failed, on.protocol.formation_failed);

  // Lossless run: metrics flowed through the registry, not around it.
  EXPECT_GT(off.protocol.messages, 0u);
  EXPECT_GT(off.protocol.completion_seconds, 0.0);
  EXPECT_EQ(off.protocol.retries, 0u);
}

/// Causal context propagation (flow events, Message::trace_parent,
/// phase ids) must obey the same invariant as spans: a *faulted*
/// protocol run — retries, timeouts, repair — is bit-identical with the
/// recorder off and on, and consumes zero extra randomness.
TEST_F(TracingEquivalenceTest, FaultedDistributedRunIsBitIdentical) {
  const Fixture f = make_fixture(6, 18, 0xFA11);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);

  sim::ProtocolOptions proto;
  proto.latency.base_seconds = 0.02;
  proto.latency.jitter = 0.3;
  proto.report_timeout_seconds = 0.2;
  proto.award_timeout_seconds = 0.15;
  proto.faults.drop_probability = 0.3;
  proto.faults.straggler_probability = 0.1;
  proto.faults.straggler_multiplier = 4.0;
  proto.faults.seed = 0xFA11 ^ 0xFA117;
  proto.faults.crashes = sim::gsp_crash_schedule(
      des::random_crash_windows(6, 0.4, 0.2, 0.0, 0xFA11 ^ 0xC4A5));

  util::Xoshiro256 rng_off(23);
  obs::Recorder::instance().disable();
  const sim::DistributedRunResult off =
      sim::run_distributed(tvof, f.instance, f.trust, rng_off, proto);
  const std::uint64_t probe_off = rng_off();

  util::Xoshiro256 rng_on(23);
  obs::Recorder::instance().enable();
  const sim::DistributedRunResult on =
      sim::run_distributed(tvof, f.instance, f.trust, rng_on, proto);
  const std::uint64_t probe_on = rng_on();
  obs::Recorder::instance().disable();

  expect_bit_identical(off.mechanism, on.mechanism);
  EXPECT_EQ(probe_off, probe_on);
  EXPECT_EQ(off.protocol.messages, on.protocol.messages);
  EXPECT_EQ(off.protocol.bytes, on.protocol.bytes);
  EXPECT_EQ(off.protocol.report_phase_seconds,
            on.protocol.report_phase_seconds);
  EXPECT_EQ(off.protocol.retries, on.protocol.retries);
  EXPECT_EQ(off.protocol.timeouts_fired, on.protocol.timeouts_fired);
  EXPECT_EQ(off.protocol.drops_observed, on.protocol.drops_observed);
  EXPECT_EQ(off.protocol.repair_rounds, on.protocol.repair_rounds);
  EXPECT_EQ(off.protocol.degraded_quorum, on.protocol.degraded_quorum);
  EXPECT_EQ(off.protocol.formation_failed, on.protocol.formation_failed);

  // The fault machinery must have actually fired, or this proves
  // nothing about the retry/timeout instrumentation paths.
  EXPECT_GT(off.protocol.drops_observed + off.protocol.timeouts_fired, 0u);
  // And the traced run produced the causal DAG.
  bool saw_flow = false;
  for (const obs::TraceEvent& ev :
       obs::Recorder::instance().snapshot_events()) {
    if (ev.kind == obs::EventKind::FlowStart) saw_flow = true;
  }
  EXPECT_TRUE(saw_flow);
}

/// The exported causal DAG is *well-formed*: every message flow's
/// parent chain resolves to recorded events, TP re-sends attach to
/// their phase, and GSP replies attach to the delivery that caused
/// them (no rootless protocol messages).
TEST_F(TracingEquivalenceTest, TracedProtocolMessagesAreCausallyLinked) {
  const Fixture f = make_fixture(5, 15, 0xCAFE);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(11);
  obs::Recorder::instance().enable();
  (void)sim::run_distributed(tvof, f.instance, f.trust, rng);
  obs::Recorder::instance().disable();

  const std::vector<obs::TraceEvent> events =
      obs::Recorder::instance().snapshot_events();
  std::size_t flows = 0;
  std::size_t rootless = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::EventKind::FlowStart) continue;
    ++flows;
    if (ev.parent == 0) ++rootless;
    // Every flow parent must be a recorded event (a phase event, a
    // deliver span, or another span) — never a dangling id.
    if (ev.parent != 0) {
      bool found = false;
      for (const obs::TraceEvent& other : events) {
        if (other.id == ev.parent &&
            other.kind != obs::EventKind::FlowEnd) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "flow " << ev.name << " id " << ev.id
                         << " has dangling parent " << ev.parent;
    }
  }
  EXPECT_GT(flows, 0u);
  EXPECT_EQ(rootless, 0u) << "protocol messages must be causally rooted";
}

TEST_F(TracingEquivalenceTest, TracedProtocolEmitsPhaseEvents) {
  const Fixture f = make_fixture(5, 15, 21);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(5);
  obs::Recorder::instance().enable();
  (void)sim::run_distributed(tvof, f.instance, f.trust, rng);
  obs::Recorder::instance().disable();

  bool saw_protocol_run = false, saw_collecting = false, saw_deciding = false,
       saw_awarding = false;
  for (const obs::TraceEvent& ev :
       obs::Recorder::instance().snapshot_events()) {
    if (ev.name == "core.protocol.run") saw_protocol_run = true;
    if (ev.name == "protocol.phase.collecting") saw_collecting = true;
    if (ev.name == "protocol.phase.deciding") saw_deciding = true;
    if (ev.name == "protocol.phase.awarding") saw_awarding = true;
  }
  EXPECT_TRUE(saw_protocol_run);
  EXPECT_TRUE(saw_collecting);
  EXPECT_TRUE(saw_deciding);
  EXPECT_TRUE(saw_awarding);
}

}  // namespace
}  // namespace svo::core
