#include "sim/protocol.hpp"

#include <gtest/gtest.h>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
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

TEST(DistributedTvofTest, DecisionIdenticalToLocalRun) {
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
  EXPECT_EQ(dist.mechanism.journal.size(), local.journal.size());
}

TEST(DistributedTvofTest, MessageCountMatchesProtocol) {
  const Fixture f = make_fixture(6, 18, 2);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(11);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng);
  ASSERT_TRUE(r.mechanism.success);
  const std::size_t m = 6;
  const std::size_t members = r.mechanism.selected.size();
  const std::size_t released = m - members;
  // CFP (m) + REPORT (m) + RELEASE (removed) + AWARD + ACK (members each).
  EXPECT_EQ(r.protocol.messages, m + m + released + members + members);
  EXPECT_GT(r.protocol.bytes, 0u);
}

TEST(DistributedTvofTest, TimelineIsOrdered) {
  const Fixture f = make_fixture(6, 18, 3);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(13);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng);
  EXPECT_GT(r.protocol.report_phase_seconds, 0.0);
  EXPECT_GT(r.protocol.completion_seconds,
            r.protocol.report_phase_seconds);
  // Completion includes the measured mechanism compute time.
  EXPECT_GE(r.protocol.completion_seconds,
            r.mechanism.elapsed_seconds + r.protocol.report_phase_seconds);
}

TEST(DistributedTvofTest, FailureStillTerminatesCleanly) {
  Fixture f = make_fixture(4, 8, 4);
  f.instance.payment = 0.0;  // nothing feasible
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(17);
  const DistributedRunResult r =
      run_distributed(tvof, f.instance, f.trust, rng);
  EXPECT_FALSE(r.mechanism.success);
  // CFP + REPORT both ways; no awards/acks. (The single infeasible
  // iteration removes nobody, so no RELEASE either.)
  EXPECT_EQ(r.protocol.messages, 4u + 4u);
  EXPECT_GT(r.protocol.completion_seconds, 0.0);
}

TEST(DistributedTvofTest, BytesScaleWithProblemSize) {
  const Fixture small = make_fixture(4, 8, 5);
  const Fixture large = make_fixture(8, 64, 5);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng_a(19);
  util::Xoshiro256 rng_b(19);
  const DistributedRunResult a =
      run_distributed(tvof, small.instance, small.trust, rng_a);
  const DistributedRunResult b =
      run_distributed(tvof, large.instance, large.trust, rng_b);
  EXPECT_GT(b.protocol.bytes, a.protocol.bytes);
}

}  // namespace
}  // namespace svo::sim
