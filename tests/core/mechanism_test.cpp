#include "core/mechanism.hpp"

#include <gtest/gtest.h>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "tests/ip/test_instances.hpp"
#include "trust/reputation.hpp"

namespace svo::core {
namespace {

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

/// m GSPs, n tasks, dense-enough trust so reputations are informative.
Fixture make_fixture(std::size_t m, std::size_t n, std::uint64_t seed,
                     double trust_p = 0.4) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(m, n, rng);
  f.trust = trust::random_trust_graph(m, trust_p, rng);
  return f;
}

TEST(MechanismTest, JournalCoalitionsShrinkByOne) {
  const Fixture f = make_fixture(6, 18, 1);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(99);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_FALSE(r.journal.empty());
  EXPECT_EQ(r.journal.front().coalition.size(), 6u);
  for (std::size_t i = 1; i < r.journal.size(); ++i) {
    EXPECT_EQ(r.journal[i].coalition.size(),
              r.journal[i - 1].coalition.size() - 1);
    // The removed GSP really left.
    const std::size_t removed = r.journal[i - 1].removed_gsp;
    ASSERT_NE(removed, SIZE_MAX);
    EXPECT_TRUE(r.journal[i - 1].coalition.contains(removed));
    EXPECT_FALSE(r.journal[i].coalition.contains(removed));
  }
}

TEST(MechanismTest, LoopStopsAtFirstInfeasible) {
  const Fixture f = make_fixture(6, 18, 2);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(7);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  for (std::size_t i = 0; i + 1 < r.journal.size(); ++i) {
    EXPECT_TRUE(r.journal[i].feasible);  // only the last may be infeasible
  }
}

TEST(MechanismTest, SelectedVoMaximizesShareAmongFeasible) {
  const Fixture f = make_fixture(6, 18, 3);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(11);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_TRUE(r.success);
  for (const auto& it : r.journal) {
    if (it.feasible) {
      EXPECT_GE(r.payoff_share, it.payoff_share - 1e-9);
    }
  }
}

TEST(MechanismTest, MappingSatisfiesAllIpConstraints) {
  const Fixture f = make_fixture(5, 15, 4);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(13);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_TRUE(r.success);
  // Restrict the instance to the selected VO and check (10)-(13).
  std::vector<std::size_t> original;
  const ip::AssignmentInstance sub = f.instance.restrict_to(
      r.selected.mask(f.instance.num_gsps()), &original);
  ip::Assignment local(r.mapping.size());
  for (std::size_t t = 0; t < r.mapping.size(); ++t) {
    const auto pos =
        std::find(original.begin(), original.end(), r.mapping[t]);
    ASSERT_NE(pos, original.end()) << "mapping uses GSP outside the VO";
    local[t] = static_cast<std::size_t>(pos - original.begin());
  }
  EXPECT_EQ(ip::check_feasible(sub, local), "");
  EXPECT_NEAR(ip::assignment_cost(sub, local), r.cost, 1e-9);
  EXPECT_NEAR(r.value, f.instance.payment - r.cost, 1e-9);
}

TEST(MechanismTest, TvofRemovesLowestRecomputedReputation) {
  const Fixture f = make_fixture(6, 18, 5);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(17);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  const trust::ReputationEngine engine(tvof.config().reputation);
  for (const auto& it : r.journal) {
    if (it.removed_gsp == SIZE_MAX) continue;
    const auto members = it.coalition.members();
    const trust::ReputationResult rep = engine.compute(f.trust, members);
    double lowest = rep.scores[0];
    for (const double s : rep.scores) lowest = std::min(lowest, s);
    // The removed GSP's recomputed score equals the minimum.
    const auto pos =
        std::find(members.begin(), members.end(), it.removed_gsp);
    ASSERT_NE(pos, members.end());
    const double removed_score =
        rep.scores[static_cast<std::size_t>(pos - members.begin())];
    EXPECT_NEAR(removed_score, lowest, 1e-9);
  }
}

TEST(MechanismTest, DeterministicInRngSeed) {
  const Fixture f = make_fixture(6, 18, 6);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng_a(23);
  util::Xoshiro256 rng_b(23);
  const MechanismResult a = tvof.run(FormationRequest{f.instance, f.trust, rng_a});
  const MechanismResult b = tvof.run(FormationRequest{f.instance, f.trust, rng_b});
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.journal.size(), b.journal.size());
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(MechanismTest, RvofRunsSameLoopWithRandomRemoval) {
  const Fixture f = make_fixture(6, 18, 7);
  const ip::BnbAssignmentSolver solver;
  const RvofMechanism rvof(solver);
  util::Xoshiro256 rng(29);
  const MechanismResult r = rvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.journal.front().coalition.size(), 6u);
  for (const auto& it : r.journal) {
    if (it.feasible) {
      EXPECT_GE(r.payoff_share, it.payoff_share - 1e-9);
    }
  }
}

TEST(MechanismTest, ProductSelectionRuleUsesReputation) {
  const Fixture f = make_fixture(6, 18, 8);
  const ip::BnbAssignmentSolver solver;
  MechanismConfig cfg;
  cfg.selection = SelectionRule::MaxPayoffReputationProduct;
  const TvofMechanism tvof(solver, cfg);
  util::Xoshiro256 rng(31);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_TRUE(r.success);
  const double key = r.payoff_share * r.avg_global_reputation;
  for (const auto& it : r.journal) {
    if (it.feasible) {
      EXPECT_GE(key, it.payoff_share * it.avg_global_reputation - 1e-9);
    }
  }
}

TEST(MechanismTest, FailureWhenNothingFeasible) {
  Fixture f = make_fixture(4, 8, 9);
  f.instance.payment = 0.0;  // nobody can execute under a zero budget
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(37);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.selected.empty());
  ASSERT_EQ(r.journal.size(), 1u);
  EXPECT_FALSE(r.journal.front().feasible);
}

TEST(MechanismTest, TrustSizeMismatchThrows) {
  const Fixture f = make_fixture(5, 10, 10);
  const trust::TrustGraph wrong(4);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(41);
  EXPECT_THROW((void)tvof.run(FormationRequest{f.instance, wrong, rng}), InvalidArgument);
}

TEST(MechanismTest, GlobalReputationVectorExported) {
  const Fixture f = make_fixture(6, 12, 11);
  const ip::BnbAssignmentSolver solver;
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(43);
  const MechanismResult r = tvof.run(FormationRequest{f.instance, f.trust, rng});
  ASSERT_EQ(r.global_reputation.size(), 6u);
  double sum = 0.0;
  for (const double x : r.global_reputation) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // avg_global_reputation consistent with the exported vector.
  double acc = 0.0;
  for (const std::size_t g : r.selected.members()) {
    acc += r.global_reputation[g];
  }
  EXPECT_NEAR(r.avg_global_reputation,
              acc / static_cast<double>(r.selected.size()), 1e-12);
}

}  // namespace
}  // namespace svo::core
