/// Fault-tolerance tests for the hardened trusted-party protocol:
/// faults-off bit-equality, determinism under identical seeds, quorum
/// degradation equivalence, and repair-path task conservation.
#include <gtest/gtest.h>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/protocol.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::sim {
namespace {

using core::FormationRequest;
using core::MechanismResult;
using core::TvofMechanism;

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

Fixture make_fixture(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(m, n, rng);
  f.trust = trust::random_trust_graph(m, 0.4, rng);
  return f;
}

/// Checks the acceptance invariant: either formation failed explicitly,
/// or every task is assigned exactly once, onto selected members only.
void expect_tasks_conserved(const DistributedRunResult& r, std::size_t n) {
  if (!r.mechanism.success) {
    EXPECT_TRUE(r.protocol.formation_failed);
    return;
  }
  ASSERT_EQ(r.mechanism.mapping.size(), n);
  for (const std::size_t g : r.mechanism.mapping) {
    EXPECT_TRUE(r.mechanism.selected.contains(g));
  }
}

TEST(DistributedFaultTest, CleanRunHasZeroFaultMetrics) {
  const Fixture f = make_fixture(6, 18, 1);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng_local(9);
  util::Xoshiro256 rng_dist(9);
  const MechanismResult local = tvof.run(FormationRequest{f.instance, f.trust, rng_local});
  const DistributedRunResult dist =
      run_distributed(tvof, f.instance, f.trust, rng_dist);
  EXPECT_EQ(dist.mechanism.selected, local.selected);
  EXPECT_DOUBLE_EQ(dist.mechanism.cost, local.cost);
  EXPECT_EQ(dist.protocol.retries, 0u);
  EXPECT_EQ(dist.protocol.timeouts_fired, 0u);
  EXPECT_EQ(dist.protocol.drops_observed, 0u);
  EXPECT_EQ(dist.protocol.repair_rounds, 0u);
  EXPECT_FALSE(dist.protocol.degraded_quorum);
  EXPECT_FALSE(dist.protocol.formation_failed);
}

// The acceptance criterion of the hardening change: with all fault knobs
// at zero, arming the phase timers must not perturb anything — protocol
// metrics and decision are bit-identical whether hardening is on
// (default) or off (timeouts zero, the legacy lossless protocol).
TEST(DistributedFaultTest, FaultsOffBitIdenticalWithAndWithoutHardening) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Fixture f = make_fixture(6, 18, seed);
    const ip::BnbAssignmentSolver solver;
    const TvofMechanism tvof(solver);

    ProtocolOptions legacy;
    legacy.report_timeout_seconds = 0.0;
    legacy.award_timeout_seconds = 0.0;

    util::Xoshiro256 rng_a(9 + seed);
    util::Xoshiro256 rng_b(9 + seed);
    const DistributedRunResult hardened =
        run_distributed(tvof, f.instance, f.trust, rng_a);
    const DistributedRunResult plain =
        run_distributed(tvof, f.instance, f.trust, rng_b, legacy);

    EXPECT_EQ(hardened.mechanism.selected, plain.mechanism.selected);
    EXPECT_EQ(hardened.mechanism.mapping, plain.mechanism.mapping);
    EXPECT_DOUBLE_EQ(hardened.mechanism.cost, plain.mechanism.cost);
    EXPECT_EQ(hardened.mechanism.journal.size(),
              plain.mechanism.journal.size());
    EXPECT_EQ(hardened.protocol.messages, plain.protocol.messages);
    EXPECT_EQ(hardened.protocol.bytes, plain.protocol.bytes);
    EXPECT_DOUBLE_EQ(hardened.protocol.report_phase_seconds,
                     plain.protocol.report_phase_seconds);
    // completion embeds the *measured* host compute time of the
    // mechanism run (as in the legacy protocol), which differs between
    // any two executions; net of it, the protocol timeline is identical.
    EXPECT_NEAR(
        hardened.protocol.completion_seconds -
            hardened.mechanism.elapsed_seconds,
        plain.protocol.completion_seconds - plain.mechanism.elapsed_seconds,
        1e-12);
  }
}

// Same as above, but for a mechanism-failure run (no awards): the
// completion fallback path must also be identical.
TEST(DistributedFaultTest, FaultsOffBitIdenticalOnMechanismFailure) {
  Fixture f = make_fixture(4, 8, 4);
  f.instance.payment = 0.0;  // nothing feasible
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  ProtocolOptions legacy;
  legacy.report_timeout_seconds = 0.0;
  legacy.award_timeout_seconds = 0.0;
  util::Xoshiro256 rng_a(17);
  util::Xoshiro256 rng_b(17);
  const DistributedRunResult hardened =
      run_distributed(tvof, f.instance, f.trust, rng_a);
  const DistributedRunResult plain =
      run_distributed(tvof, f.instance, f.trust, rng_b, legacy);
  EXPECT_FALSE(hardened.mechanism.success);
  EXPECT_TRUE(hardened.protocol.formation_failed);
  EXPECT_EQ(hardened.protocol.messages, plain.protocol.messages);
  EXPECT_NEAR(hardened.protocol.completion_seconds -
                  hardened.mechanism.elapsed_seconds,
              plain.protocol.completion_seconds -
                  plain.mechanism.elapsed_seconds,
              1e-12);
}

TEST(DistributedFaultTest, OptionsValidation) {
  const Fixture f = make_fixture(4, 8, 5);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(1);

  ProtocolOptions bad;
  bad.gsp_processing_seconds = -1.0;
  EXPECT_THROW((void)run_distributed(tvof, f.instance, f.trust, rng, bad),
               InvalidArgument);
  bad = ProtocolOptions{};
  bad.quorum_fraction = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ProtocolOptions{};
  bad.backoff_multiplier = 0.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ProtocolOptions{};
  bad.latency.jitter = -0.2;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  // Faults with disabled timers would hang a lossy protocol: rejected.
  bad = ProtocolOptions{};
  bad.faults.drop_probability = 0.1;
  bad.report_timeout_seconds = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad.report_timeout_seconds = 0.5;
  bad.award_timeout_seconds = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad.award_timeout_seconds = 0.25;
  EXPECT_NO_THROW(bad.validate());
}

TEST(DistributedFaultTest, DropsTriggerRetriesAndProtocolStillCompletes) {
  const Fixture f = make_fixture(6, 18, 2);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  ProtocolOptions opt;
  opt.faults.drop_probability = 0.3;
  opt.faults.seed = 77;
  opt.report_timeout_seconds = 0.05;
  opt.award_timeout_seconds = 0.05;
  util::Xoshiro256 rng(11);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng, opt);
  // A 30% loss rate on 6 CFPs + 6 reports virtually guarantees at least
  // one timeout with this fault seed; the protocol must still terminate
  // with an explicit outcome and a conserved task set.
  EXPECT_GT(r.protocol.drops_observed, 0u);
  EXPECT_GT(r.protocol.timeouts_fired, 0u);
  expect_tasks_conserved(r, 18);
}

TEST(DistributedFaultTest, DeterministicUnderIdenticalSeeds) {
  const Fixture f = make_fixture(6, 18, 3);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  ProtocolOptions opt;
  opt.faults.drop_probability = 0.25;
  opt.faults.straggler_probability = 0.2;
  opt.faults.straggler_multiplier = 5.0;
  opt.faults.seed = 123;
  opt.report_timeout_seconds = 0.05;
  opt.award_timeout_seconds = 0.05;

  const auto run_once = [&] {
    util::Xoshiro256 rng(13);
    return run_distributed(tvof, f.instance, f.trust, rng, opt);
  };
  const DistributedRunResult a = run_once();
  const DistributedRunResult b = run_once();
  // Everything not tied to the host wall clock must match exactly.
  EXPECT_EQ(a.mechanism.selected, b.mechanism.selected);
  EXPECT_EQ(a.mechanism.mapping, b.mechanism.mapping);
  EXPECT_EQ(a.protocol.messages, b.protocol.messages);
  EXPECT_EQ(a.protocol.bytes, b.protocol.bytes);
  EXPECT_EQ(a.protocol.retries, b.protocol.retries);
  EXPECT_EQ(a.protocol.timeouts_fired, b.protocol.timeouts_fired);
  EXPECT_EQ(a.protocol.drops_observed, b.protocol.drops_observed);
  EXPECT_EQ(a.protocol.repair_rounds, b.protocol.repair_rounds);
  EXPECT_EQ(a.protocol.degraded_quorum, b.protocol.degraded_quorum);
  EXPECT_EQ(a.protocol.formation_failed, b.protocol.formation_failed);

  // A different fault seed must be able to change the fault trace.
  ProtocolOptions other = opt;
  other.faults.seed = 124;
  util::Xoshiro256 rng(13);
  const DistributedRunResult c =
      run_distributed(tvof, f.instance, f.trust, rng, other);
  EXPECT_NE(a.protocol.drops_observed, c.protocol.drops_observed);
}

// Quorum degradation: with two GSPs dead from the start, the TP times
// out, proceeds with the four responsive reports, and its decision is
// exactly the mechanism run over that subset.
TEST(DistributedFaultTest, QuorumDegradationMatchesSubsetRun) {
  const Fixture f = make_fixture(6, 18, 6);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  ProtocolOptions opt;
  opt.faults.crashes = gsp_crash_schedule({{1, 0.0}, {4, 0.0}});  // dead GSPs
  opt.report_timeout_seconds = 0.05;
  opt.award_timeout_seconds = 0.05;
  opt.max_retries = 1;

  util::Xoshiro256 rng_dist(21);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng_dist, opt);
  EXPECT_TRUE(r.protocol.degraded_quorum);
  // Quorum (3 of 6) is already met when the first timeout fires, so the
  // TP proceeds immediately — no CFP re-sends (those are exercised in
  // ReportsFormationFailureWhenQuorumUnreachable).
  EXPECT_EQ(r.protocol.timeouts_fired, 1u);
  EXPECT_EQ(r.protocol.retries, 0u);
  EXPECT_FALSE(r.mechanism.selected.contains(1));
  EXPECT_FALSE(r.mechanism.selected.contains(4));

  // Decision equivalence with a direct run over the responsive subset.
  util::Xoshiro256 rng_local(21);
  const game::Coalition responsive =
      game::Coalition::all(6).without(1).without(4);
  const MechanismResult local =
      tvof.run(FormationRequest{f.instance, f.trust, rng_local, responsive});
  EXPECT_EQ(r.mechanism.selected, local.selected);
  EXPECT_EQ(r.mechanism.mapping, local.mapping);
  EXPECT_DOUBLE_EQ(r.mechanism.cost, local.cost);
  expect_tasks_conserved(r, 18);
}

// Quorum impossible: everyone is dead; the TP must give up explicitly
// instead of hanging.
TEST(DistributedFaultTest, ReportsFormationFailureWhenQuorumUnreachable) {
  const Fixture f = make_fixture(4, 8, 7);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  ProtocolOptions opt;
  opt.faults.crashes =
      gsp_crash_schedule({{0, 0.0}, {1, 0.0}, {2, 0.0}, {3, 0.0}});
  opt.report_timeout_seconds = 0.02;
  opt.award_timeout_seconds = 0.02;
  opt.max_retries = 2;
  util::Xoshiro256 rng(31);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng, opt);
  EXPECT_TRUE(r.protocol.formation_failed);
  EXPECT_FALSE(r.mechanism.success);
  EXPECT_EQ(r.protocol.timeouts_fired, 3u);  // initial + 2 retry rounds
  EXPECT_EQ(r.protocol.retries, 8u);         // 2 rounds x 4 silent GSPs
  EXPECT_GT(r.protocol.drops_observed, 0u);
}

// Repair path: a selected member crashes after reporting but before the
// award reaches it. The TP must declare it failed, re-run formation over
// the survivors, and hand over a complete reassignment.
TEST(DistributedFaultTest, RepairsVoAfterSelectedMemberCrash) {
  const Fixture f = make_fixture(6, 18, 1);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);

  // Discover the clean decision first (same rng seed the faulty run
  // uses), to crash a GSP that is certain to be selected.
  util::Xoshiro256 probe_rng(9);
  const DistributedRunResult clean =
      run_distributed(tvof, f.instance, f.trust, probe_rng);
  ASSERT_TRUE(clean.mechanism.success);
  const std::size_t victim = clean.mechanism.selected.members().front();

  ProtocolOptions opt;
  // The victim dies the moment the report phase completes: its report
  // got through, but it will never see its award.
  opt.faults.crashes =
      gsp_crash_schedule({{victim, clean.protocol.report_phase_seconds}});
  opt.report_timeout_seconds = 0.5;
  opt.award_timeout_seconds = 0.05;
  opt.max_retries = 1;
  util::Xoshiro256 rng(9);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng, opt);

  EXPECT_GE(r.protocol.repair_rounds, 1u);
  EXPECT_GE(r.protocol.retries, 1u);        // the award was re-sent first
  EXPECT_GE(r.protocol.timeouts_fired, 2u); // initial + retry timer
  ASSERT_TRUE(r.mechanism.success);
  EXPECT_FALSE(r.mechanism.selected.contains(victim));
  EXPECT_FALSE(r.protocol.formation_failed);
  EXPECT_GT(r.protocol.completion_seconds,
            clean.protocol.completion_seconds);
  expect_tasks_conserved(r, 18);
}

// Stress: heavy loss plus random permanent crashes across several
// seeds. The protocol must always terminate with either a fully
// assigned program or an explicit failure — never a hang or a silently
// dropped task (a hang would trip the test timeout).
TEST(DistributedFaultTest, NeverDeadlocksOrDropsTasksUnderHeavyFaults) {
  const Fixture f = make_fixture(6, 18, 8);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    ProtocolOptions opt;
    opt.faults.drop_probability = 0.4;
    opt.faults.straggler_probability = 0.3;
    opt.faults.straggler_multiplier = 10.0;
    opt.faults.crashes = gsp_crash_schedule(
        des::random_crash_windows(6, 0.3, 0.5, 0.0, 1000 + seed));
    opt.faults.seed = seed;
    opt.report_timeout_seconds = 0.05;
    opt.award_timeout_seconds = 0.05;
    opt.max_retries = 2;
    util::Xoshiro256 rng(seed);
    const DistributedRunResult r =
        run_distributed(tvof, f.instance, f.trust, rng, opt);
    expect_tasks_conserved(r, 18);
    if (r.mechanism.success) {
      // Survivor invariant: no crashed-at-zero GSP can be a member.
      for (const auto& w : opt.faults.crashes) {
        if (w.begin == 0.0) {
          EXPECT_FALSE(r.mechanism.selected.contains(w.node - 1));
        }
      }
    }
  }
}

}  // namespace
}  // namespace svo::sim
