/// Degenerate and hostile inputs: trust graphs that are malformed
/// (non-finite weights) must be rejected at the boundary, and graphs
/// that are structurally extreme (edgeless rows, disconnected
/// components, singleton coalitions) must still converge instead of
/// hanging or producing NaN scores.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust {
namespace {

TEST(TrustGraphValidationTest, NonFiniteTrustRejected) {
  TrustGraph g(3);
  EXPECT_THROW(g.set_trust(0, 1, std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
  EXPECT_THROW(g.set_trust(0, 1, std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(g.set_trust(0, 1, -std::numeric_limits<double>::infinity()),
               InvalidArgument);
  // A failed set leaves the graph untouched.
  EXPECT_DOUBLE_EQ(g.trust(0, 1), 0.0);
  EXPECT_EQ(g.graph().edge_count(), 0u);
}

TEST(TrustGraphValidationTest, AdoptedDigraphWithInfiniteTrustRejected) {
  // Digraph::set_edge accepts +inf (it only rejects negative weights);
  // adopting such a digraph must fail at the boundary, not at compute.
  graph::Digraph d(3);
  d.set_edge(0, 1, 0.5);
  d.set_edge(2, 1, std::numeric_limits<double>::infinity());
  try {
    const TrustGraph g(d);
    ADD_FAILURE() << "adopted an infinite trust weight";
  } catch (const InvalidArgument& e) {  // names the offending edge
    EXPECT_NE(std::string(e.what()).find("(2, 1)"), std::string::npos)
        << e.what();
  }
  d.set_edge(2, 1, 0.25);
  EXPECT_NO_THROW(TrustGraph{d});
}

TEST(TrustGraphValidationTest, AdoptedDigraphWithSelfLoopRejected) {
  // set_trust refuses self-trust; adopting a digraph that holds some
  // must fail too, or the self-loop would count in one matrix export and
  // be skipped by another.
  graph::Digraph d(3);
  d.set_edge(0, 0, 1.0);
  d.set_edge(0, 1, 1.0);
  d.set_edge(1, 2, 1.0);
  d.set_edge(2, 0, 1.0);
  try {
    const TrustGraph g(d);
    ADD_FAILURE() << "adopted a self-loop";
  } catch (const InvalidArgument& e) {  // names the offending edge
    EXPECT_NE(std::string(e.what()).find("(0, 0)"), std::string::npos)
        << e.what();
  }
  ASSERT_TRUE(d.remove_edge(0, 0));
  EXPECT_NO_THROW(TrustGraph{d});
}

TEST(TrustGraphValidationTest, RejectedWriteDoesNotClobberExistingEdge) {
  TrustGraph g(2);
  g.set_trust(0, 1, 0.7);
  EXPECT_THROW(g.set_trust(0, 1, std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
  EXPECT_THROW(g.set_trust(0, 1, -2.0), InvalidArgument);
  EXPECT_DOUBLE_EQ(g.trust(0, 1), 0.7);
}

void expect_valid_distribution(const ReputationResult& r) {
  ASSERT_TRUE(r.converged);
  double sum = 0.0;
  for (const double s : r.scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DegenerateGraphTest, AllZeroTrustRowsConverge) {
  // Nobody trusts anybody: every row dangling. The engine must converge
  // to the uniform distribution, not loop or divide by zero.
  TrustGraph g(6);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  expect_valid_distribution(r);
  for (const double s : r.scores) EXPECT_NEAR(s, 1.0 / 6.0, 1e-9);
  // Same through the defended path.
  ReputationOptions opts;
  opts.robust.enabled = true;
  const ReputationResult rr = ReputationEngine(opts).compute(g);
  expect_valid_distribution(rr);
}

TEST(DegenerateGraphTest, SingleDanglingRowConverges) {
  TrustGraph g(4);
  g.set_trust(0, 1, 1.0);
  g.set_trust(1, 0, 1.0);
  g.set_trust(2, 0, 0.5);
  // GSP 3 rates nobody and nobody rates it.
  const ReputationEngine engine;
  expect_valid_distribution(engine.compute(g));
}

TEST(DegenerateGraphTest, DisconnectedComponentsConverge) {
  // Two 3-cliques with no edges between them.
  TrustGraph g(6);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        g.set_trust(i, j, 1.0);
        g.set_trust(3 + i, 3 + j, 1.0);
      }
    }
  }
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  expect_valid_distribution(r);
  // Symmetric components with damping: uniform within and across.
  for (const double s : r.scores) EXPECT_NEAR(s, 1.0 / 6.0, 1e-6);
  // Coalition spanning both components also converges.
  expect_valid_distribution(engine.compute(g, {0, 1, 4, 5}));
  // Defended path over the same structure.
  ReputationOptions opts;
  opts.robust.enabled = true;
  expect_valid_distribution(ReputationEngine(opts).compute(g));
}

TEST(DegenerateGraphTest, SingletonCoalitionConverges) {
  TrustGraph g(5);
  g.set_trust(0, 1, 1.0);
  g.set_trust(1, 2, 3.0);
  const ReputationEngine engine;
  for (std::size_t member = 0; member < 5; ++member) {
    const ReputationResult r = engine.compute(g, {member});
    ASSERT_EQ(r.scores.size(), 1u);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.scores[0], 1.0, 1e-9);
  }
  ReputationOptions opts;
  opts.robust.enabled = true;
  const ReputationResult r = ReputationEngine(opts).compute(g, {2});
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_NEAR(r.scores[0], 1.0, 1e-9);
}

TEST(DegenerateGraphTest, ZeroDampingAnnihilationFallsBackToUniform) {
  // With damping 0 a pure one-way chain annihilates the iterate's mass
  // once it drains past the sink; the engine must fall back to uniform
  // and flag non-convergence instead of emitting NaN.
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);  // 0 -> 1, 1 and 2 rate nobody
  ReputationOptions opts;
  opts.power.damping = 0.0;
  const ReputationEngine engine(opts);
  const ReputationResult r = engine.compute(g);
  for (const double s : r.scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
}

}  // namespace
}  // namespace svo::trust
