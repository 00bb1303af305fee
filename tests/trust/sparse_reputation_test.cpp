/// The storage-polymorphism contract of DESIGN.md §4i: the CSR trust
/// backend is an implementation detail — dense and sparse engines
/// produce bit-identical reputations (standard, coalition and robust),
/// bit-identical mechanism outcomes (VO, cost, RNG probe), and the
/// attack-resilience properties survive the backend switch. Plus the
/// TrustGraph identity/version/delta bookkeeping and the incremental
/// ReputationCache the streaming plane builds on.
#include "trust/reputation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/mechanism.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "tests/ip/test_instances.hpp"
#include "trust/attack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::trust {
namespace {

ReputationOptions with_backend(TrustBackend backend) {
  ReputationOptions o;
  o.backend = backend;
  return o;
}

void expect_bitwise_equal(const ReputationResult& a, const ReputationResult& b,
                          const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.average, b.average);
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "score " << i;
  }
}

TEST(TrustGraphSparseTest, NormalizedSparseMatchesDenseBitwise) {
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.index(50);
    const TrustGraph g = random_trust_graph(n, rng.uniform(0.05, 0.5), rng);
    const linalg::Matrix dense = g.normalized_matrix();
    const linalg::Matrix sparse = g.normalized_sparse().to_dense();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(sparse(i, j), dense(i, j)) << n << " " << i << " " << j;
      }
    }
    // Coalition restriction too.
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.6)) members.push_back(i);
    }
    const linalg::Matrix dc = g.normalized_matrix(members);
    const linalg::Matrix sc = g.normalized_sparse(members).to_dense();
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        EXPECT_EQ(sc(i, j), dc(i, j));
      }
    }
  }
}

TEST(TrustGraphSparseTest, NormalizedRowsMatchTheFullExportBitwise) {
  util::Xoshiro256 rng(4711);
  const TrustGraph g = random_sparse_trust_graph(300, 5, rng);
  const linalg::SparseMatrix full = g.normalized_sparse();
  const std::vector<std::size_t> rows = {299, 0, 17, 17, 150};
  const linalg::SparseMatrix some = g.normalized_rows(rows);
  ASSERT_EQ(some.rows(), rows.size());
  ASSERT_EQ(some.cols(), g.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const linalg::SparseMatrix::RowView a = some.row(k);
    const linalg::SparseMatrix::RowView b = full.row(rows[k]);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a.cols[e], b.cols[e]);
      EXPECT_EQ(a.values[e], b.values[e]);
    }
  }
  EXPECT_THROW((void)g.normalized_rows(std::vector<std::size_t>{300}),
               InvalidArgument);
}

TEST(TrustGraphSparseTest, RawSparseHoldsUnnormalizedTrust) {
  TrustGraph g(4);
  g.set_trust(0, 1, 2.5);
  g.set_trust(0, 2, 7.5);
  g.set_trust(3, 0, 0.25);
  const linalg::SparseMatrix raw = g.raw_sparse();
  EXPECT_EQ(raw.at(0, 1), 2.5);
  EXPECT_EQ(raw.at(0, 2), 7.5);
  EXPECT_EQ(raw.at(3, 0), 0.25);
  EXPECT_EQ(raw.nnz(), 3u);
  // Coalition restriction uses local indices; edges touching the
  // excluded member 3 are dropped.
  const linalg::SparseMatrix coalition = g.raw_sparse({0, 1, 2});
  EXPECT_EQ(coalition.at(0, 1), 2.5);
  EXPECT_EQ(coalition.at(0, 2), 7.5);
  EXPECT_EQ(coalition.nnz(), 2u);
}

/// Dense and sparse engines agree bitwise on every path: full graph,
/// coalition, and the robust (defended) pipeline, across thread counts.
TEST(DenseSparseEquivalenceTest, AllPathsBitIdentical) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.index(48);
    const TrustGraph g = random_trust_graph(n, rng.uniform(0.08, 0.4), rng);

    ReputationOptions dense_o = with_backend(TrustBackend::Dense);
    ReputationOptions sparse_o = with_backend(TrustBackend::Sparse);
    sparse_o.power.threads = 3;  // pooled path must agree too

    expect_bitwise_equal(ReputationEngine(dense_o).compute(g),
                         ReputationEngine(sparse_o).compute(g), "full graph");

    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) members.push_back(i);
    }
    expect_bitwise_equal(ReputationEngine(dense_o).compute(g, members),
                         ReputationEngine(sparse_o).compute(g, members),
                         "coalition");

    for (const RowAggregation agg :
         {RowAggregation::Sum, RowAggregation::TrimmedMean,
          RowAggregation::MedianOfMeans}) {
      dense_o.robust.enabled = sparse_o.robust.enabled = true;
      dense_o.robust.aggregation = sparse_o.robust.aggregation = agg;
      dense_o.robust.fresh = sparse_o.robust.fresh = {0, n / 2};
      expect_bitwise_equal(ReputationEngine(dense_o).compute(g),
                           ReputationEngine(sparse_o).compute(g),
                           "robust full graph");
      expect_bitwise_equal(ReputationEngine(dense_o).compute(g, members),
                           ReputationEngine(sparse_o).compute(g, members),
                           "robust coalition");
    }
  }
}

/// Auto backend: at or below the threshold the dense path runs; above it
/// the sparse path runs; either way the scores are the same bits.
TEST(DenseSparseEquivalenceTest, AutoThresholdIsInvisible) {
  util::Xoshiro256 rng(31337);
  const TrustGraph g = random_trust_graph(40, 0.2, rng);
  ReputationOptions below = with_backend(TrustBackend::Auto);
  below.sparse_threshold = 64;  // 40 <= 64: dense
  ReputationOptions above = with_backend(TrustBackend::Auto);
  above.sparse_threshold = 8;  // 40 > 8: sparse
  expect_bitwise_equal(ReputationEngine(below).compute(g),
                       ReputationEngine(above).compute(g), "auto threshold");
}

TEST(TrustGraphVersionTest, VersionCountsEffectiveMutationsOnly) {
  TrustGraph g(4);
  EXPECT_EQ(g.version(), 0u);
  g.set_trust(0, 1, 0.5);
  EXPECT_EQ(g.version(), 1u);
  g.set_trust(0, 1, 0.5);  // same value: no-op
  EXPECT_EQ(g.version(), 1u);
  g.set_trust(0, 1, 0.75);
  EXPECT_EQ(g.version(), 2u);
  g.set_trust(2, 3, 0.0);  // removing an absent edge: no-op
  EXPECT_EQ(g.version(), 2u);
  g.set_trust(0, 1, 0.0);  // removal counts
  EXPECT_EQ(g.version(), 3u);

  const auto delta = g.edges_changed_since(1);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 2u);
  EXPECT_EQ((*delta)[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ((*delta)[1], (std::pair<std::size_t, std::size_t>{0, 1}));
  // Asking at (or past) the current version yields an empty delta.
  EXPECT_TRUE(g.edges_changed_since(3).has_value());
  EXPECT_TRUE(g.edges_changed_since(3)->empty());
  EXPECT_TRUE(g.edges_changed_since(99)->empty());
}

TEST(TrustGraphVersionTest, BoundedLogReportsWindowLoss) {
  TrustGraph g(3);
  // Alternate values so every set_trust is effective: > 1024 changes
  // overflow the bounded log and drop its oldest half.
  for (int k = 0; k < 1500; ++k) {
    g.set_trust(0, 1, 0.25 + 0.5 * (k % 2));
  }
  EXPECT_EQ(g.version(), 1500u);
  EXPECT_FALSE(g.edges_changed_since(0).has_value());  // window lost
  const auto recent = g.edges_changed_since(1499);
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(recent->size(), 1u);
}

TEST(TrustGraphVersionTest, CopyGetsFreshUidMoveStealsIt) {
  TrustGraph g(3);
  g.set_trust(0, 1, 0.5);
  const std::uint64_t uid = g.uid();

  const TrustGraph copy(g);
  EXPECT_NE(copy.uid(), uid);          // fresh identity
  EXPECT_EQ(copy.version(), g.version());
  EXPECT_EQ(copy.trust(0, 1), 0.5);

  TrustGraph moved(std::move(g));
  EXPECT_EQ(moved.uid(), uid);  // identity travels with the content
  EXPECT_EQ(moved.trust(0, 1), 0.5);
  EXPECT_NE(g.uid(), uid);  // NOLINT(bugprone-use-after-move): reset contract
  EXPECT_EQ(g.size(), 0u);
}

TEST(ReputationCacheTest, ExactHitIsBitIdenticalAndSkipsRecompute) {
  util::Xoshiro256 rng(808);
  const TrustGraph g = random_sparse_trust_graph(300, 6, rng);
  ReputationCache cache;
  ReputationOptions o = with_backend(TrustBackend::Sparse);
  o.cache = &cache;
  const ReputationEngine engine(o);

  const ReputationResult first = engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 1u);
  const ReputationResult second = engine.compute(g);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  expect_bitwise_equal(first, second, "exact hit");

  // And identical to a cache-less engine: the cache is invisible.
  ReputationOptions plain = with_backend(TrustBackend::Sparse);
  expect_bitwise_equal(ReputationEngine(plain).compute(g), first,
                       "cacheless equivalence");
}

TEST(ReputationCacheTest, SmallDeltaWarmStartsLargeDeltaColdStarts) {
  util::Xoshiro256 rng(606);
  TrustGraph g = random_sparse_trust_graph(2000, 10, rng);
  ReputationCache cache;
  ReputationOptions o;  // Auto resolves sparse at n=2000
  o.cache = &cache;
  o.warm_max_delta = 16;
  const ReputationEngine engine(o);

  const ReputationResult cold = engine.compute(g);
  ASSERT_TRUE(cold.converged);

  // Perturb a handful of edges: warm start, fewer iterations, same
  // fixed point within tolerance.
  for (std::size_t k = 0; k < 8; ++k) {
    g.set_trust(k, k + 1, 0.9);
  }
  const ReputationResult warm = engine.compute(g);
  EXPECT_EQ(cache.stats().warm_starts, 1u);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_GT(cache.stats().iterations_saved, 0u);
  double drift = 0.0;
  for (std::size_t i = 0; i < warm.scores.size(); ++i) {
    drift += std::abs(warm.scores[i] - cold.scores[i]);
  }
  EXPECT_LT(drift, 0.05);  // 8 edges out of ~20k barely move the vector

  // A delta past warm_max_delta cold-starts.
  for (std::size_t k = 0; k < 40; ++k) {
    g.set_trust(100 + k, 200 + k, 0.5);
  }
  (void)engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 2u);
}

TEST(ReputationCacheTest, OptionsChangeAndForeignGraphMiss) {
  util::Xoshiro256 rng(123);
  const TrustGraph g = random_sparse_trust_graph(200, 5, rng);
  const TrustGraph other = random_sparse_trust_graph(200, 5, rng);
  ReputationCache cache;
  ReputationOptions o = with_backend(TrustBackend::Sparse);
  o.cache = &cache;
  (void)ReputationEngine(o).compute(g);
  // Different graph object: the uid mismatch forces a cold start.
  (void)ReputationEngine(o).compute(other);
  EXPECT_EQ(cache.stats().cold_starts, 2u);
  EXPECT_EQ(cache.stats().exact_hits, 0u);
  // Changed power options: fingerprint mismatch, cold again.
  o.power.epsilon = 1e-6;
  (void)ReputationEngine(o).compute(other);
  EXPECT_EQ(cache.stats().cold_starts, 3u);

  cache.clear();
  EXPECT_EQ(cache.stats().cold_starts, 0u);
}

TEST(ReputationCacheTest, RobustPipelineRejectsCache) {
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  o.robust.enabled = true;
  const TrustGraph g(4);
  EXPECT_THROW((void)ReputationEngine(o).compute(g), InvalidArgument);
}

/// Mechanism-level acceptance: forcing the sparse backend through the
/// whole TVOF loop yields a bit-identical VO, cost, journal and RNG
/// probe — the backend cannot leak into mechanism outcomes.
TEST(DenseSparseEquivalenceTest, MechanismOutcomesBitIdentical) {
  const ip::BnbAssignmentSolver solver;
  for (const std::uint64_t seed : {5u, 29u, 71u}) {
    util::Xoshiro256 setup(seed);
    const ip::AssignmentInstance instance =
        ip::testing::random_instance(8, 16, setup);
    const TrustGraph trust = random_trust_graph(8, 0.4, setup);

    core::MechanismConfig dense_cfg;
    dense_cfg.reputation.backend = TrustBackend::Dense;
    core::MechanismConfig sparse_cfg;
    sparse_cfg.reputation.backend = TrustBackend::Sparse;
    const core::TvofMechanism dense_mech(solver, dense_cfg);
    const core::TvofMechanism sparse_mech(solver, sparse_cfg);

    util::Xoshiro256 rng_dense(seed * 17 + 1);
    util::Xoshiro256 rng_sparse(seed * 17 + 1);
    const core::MechanismResult d =
        dense_mech.run(core::FormationRequest{instance, trust, rng_dense});
    const core::MechanismResult s =
        sparse_mech.run(core::FormationRequest{instance, trust, rng_sparse});

    EXPECT_EQ(s.success, d.success);
    EXPECT_EQ(s.selected.bits(), d.selected.bits());
    EXPECT_EQ(s.mapping, d.mapping);
    EXPECT_EQ(s.cost, d.cost);
    EXPECT_EQ(s.value, d.value);
    ASSERT_EQ(s.global_reputation.size(), d.global_reputation.size());
    for (std::size_t i = 0; i < d.global_reputation.size(); ++i) {
      EXPECT_EQ(s.global_reputation[i], d.global_reputation[i]);
    }
    ASSERT_EQ(s.journal.size(), d.journal.size());
    for (std::size_t i = 0; i < d.journal.size(); ++i) {
      EXPECT_EQ(s.journal[i].coalition.bits(), d.journal[i].coalition.bits());
      EXPECT_EQ(s.journal[i].cost, d.journal[i].cost);
      EXPECT_EQ(s.journal[i].removed_gsp, d.journal[i].removed_gsp);
    }
    // Both consumed the RNG identically (probe the next draw).
    EXPECT_EQ(rng_dense(), rng_sparse());
  }
}

/// The PR 3 attack harness must hold on the sparse path: attacks are
/// injected identically, and the defended engine scores the attacked
/// graph bit-identically on either backend — so every resilience
/// property proven dense transfers verbatim.
TEST(DenseSparseEquivalenceTest, AttackHarnessTransfersToSparseBackend) {
  for (const AttackType type :
       {AttackType::Badmouthing, AttackType::BallotStuffing,
        AttackType::Collusion, AttackType::Sybil}) {
    SCOPED_TRACE(static_cast<int>(type));
    util::Xoshiro256 rng(2718);
    TrustGraph g = random_trust_graph(24, 0.3, rng);
    AttackScenario s;
    s.type = type;
    s.attacker_fraction = 0.25;
    s.intensity = 0.9;
    s.seed = 99;
    const AttackInjector injector(s, 24);
    (void)injector.apply(g, 0);

    ReputationOptions dense_o = with_backend(TrustBackend::Dense);
    ReputationOptions sparse_o = with_backend(TrustBackend::Sparse);
    dense_o.robust.enabled = sparse_o.robust.enabled = true;
    dense_o.robust.fresh = sparse_o.robust.fresh =
        injector.fresh_identities(0, 2);
    expect_bitwise_equal(ReputationEngine(dense_o).compute(g),
                         ReputationEngine(sparse_o).compute(g),
                         "defended attacked graph");
  }
}

TEST(RandomSparseTrustGraphTest, ProducesBoundedDegreePositiveWeights) {
  util::Xoshiro256 rng(1);
  const TrustGraph g = random_sparse_trust_graph(500, 7, rng);
  EXPECT_EQ(g.size(), 500u);
  EXPECT_GT(g.graph().edge_count(), 0u);
  std::size_t max_deg = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    max_deg = std::max(max_deg, g.graph().out_degree(i));
    for (const graph::Edge& e : g.graph().out_edges(i)) {
      EXPECT_GT(e.weight, 0.0);
      EXPECT_NE(e.to, i);
    }
  }
  EXPECT_LE(max_deg, 7u);
  EXPECT_THROW((void)random_sparse_trust_graph(1, 3, rng), InvalidArgument);
  EXPECT_THROW((void)random_sparse_trust_graph(5, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace svo::trust
