#include "core/centrality_vof.hpp"

#include <gtest/gtest.h>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::core {
namespace {

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

Fixture make_fixture(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(6, 18, rng);
  f.trust = trust::random_trust_graph(6, 0.4, rng);
  return f;
}

TEST(CentralityVofTest, RuleNamesAreDistinct) {
  EXPECT_STREQ(to_string(CentralityRule::Eigenvector), "eigenvector");
  EXPECT_STREQ(to_string(CentralityRule::Degree), "degree");
  EXPECT_STREQ(to_string(CentralityRule::Closeness), "closeness");
  EXPECT_STREQ(to_string(CentralityRule::Betweenness), "betweenness");
}

TEST(CentralityVofTest, EigenvectorRuleMatchesTvofDecision) {
  const Fixture f = make_fixture(1);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  const CentralityVofMechanism cvof(solver, CentralityRule::Eigenvector);
  util::Xoshiro256 rng_a(5);
  util::Xoshiro256 rng_b(5);
  const MechanismResult a = tvof.run(FormationRequest{f.instance, f.trust, rng_a});
  const MechanismResult b = cvof.run(FormationRequest{f.instance, f.trust, rng_b});
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_EQ(cvof.name(), "CVOF-eigenvector");
}

TEST(CentralityVofTest, EveryRuleProducesValidMechanismRun) {
  const Fixture f = make_fixture(2);
  const ip::BnbAssignmentSolver solver;
  for (const CentralityRule rule :
       {CentralityRule::Degree, CentralityRule::Closeness,
        CentralityRule::Betweenness}) {
    const CentralityVofMechanism cvof(solver, rule);
    util::Xoshiro256 rng(7);
    const MechanismResult r = cvof.run(FormationRequest{f.instance, f.trust, rng});
    ASSERT_TRUE(r.success) << to_string(rule);
    // Journal invariants hold under any removal rule.
    EXPECT_EQ(r.journal.front().coalition.size(), 6u);
    for (const auto& it : r.journal) {
      if (it.feasible) {
        EXPECT_GE(r.payoff_share, it.payoff_share - 1e-9);
      }
    }
  }
}

TEST(CentralityVofTest, DegreeRuleRemovesLeastTrustedFirst) {
  // Star-ish trust: G5 receives no trust at all. The degree rule must
  // remove it first.
  util::Xoshiro256 rng(3);
  Fixture f = make_fixture(3);
  trust::TrustGraph star(6);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) star.set_trust(i, j, 1.0);
    }
  }
  star.set_trust(5, 0, 1.0);  // G5 trusts someone; nobody trusts G5
  const ip::BnbAssignmentSolver solver;
  const CentralityVofMechanism cvof(solver, CentralityRule::Degree);
  const MechanismResult r = cvof.run(FormationRequest{f.instance, star, rng});
  ASSERT_GE(r.journal.size(), 1u);
  EXPECT_EQ(r.journal.front().removed_gsp, 5u);
}

}  // namespace
}  // namespace svo::core
