/// The single-backend contract of DESIGN.md §4i: the engine iterates on
/// CSR at every size, and its reputations (standard, coalition and
/// robust) are bit-identical to the paper's dense pipeline, which
/// survives as the reference functions (TrustGraph::normalized_matrix,
/// linalg::power_method and the dense robust overloads). Mechanism
/// outcomes recorded on the dense pipeline are pinned, and the attack
/// harness scores bit-identically. Plus the TrustGraph
/// identity/version/delta bookkeeping and the incremental
/// ReputationCache the streaming plane builds on.
#include "trust/reputation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/mechanism.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "tests/ip/test_instances.hpp"
#include "tests/pin_hash.hpp"
#include "tests/trust/dense_reference.hpp"
#include "trust/attack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::trust {
namespace {

using testing::dense_reference;

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

/// The engine agrees bitwise with the dense reference on every path:
/// full graph, coalition, and the robust (defended) pipeline, across
/// thread counts.
TEST(DenseSparseEquivalenceTest, AllPathsBitIdentical) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.index(48);
    const TrustGraph g = random_trust_graph(n, rng.uniform(0.08, 0.4), rng);

    ReputationOptions ref_o;
    ReputationOptions engine_o;
    engine_o.power.threads = 3;  // pooled path must agree too

    expect_bitwise_equal(dense_reference(ref_o, g, nullptr),
                         ReputationEngine(engine_o).compute(g), "full graph");

    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) members.push_back(i);
    }
    expect_bitwise_equal(dense_reference(ref_o, g, &members),
                         ReputationEngine(engine_o).compute(g, members),
                         "coalition");

    for (const RowAggregation agg :
         {RowAggregation::Sum, RowAggregation::TrimmedMean,
          RowAggregation::MedianOfMeans}) {
      ref_o.robust.enabled = engine_o.robust.enabled = true;
      ref_o.robust.aggregation = engine_o.robust.aggregation = agg;
      ref_o.robust.fresh = engine_o.robust.fresh = {0, n / 2};
      expect_bitwise_equal(dense_reference(ref_o, g, nullptr),
                           ReputationEngine(engine_o).compute(g),
                           "robust full graph");
      expect_bitwise_equal(dense_reference(ref_o, g, &members),
                           ReputationEngine(engine_o).compute(g, members),
                           "robust coalition");
    }
  }
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
  ReputationOptions o;
  o.cache = &cache;
  const ReputationEngine engine(o);

  const ReputationResult first = engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 1u);
  const ReputationResult second = engine.compute(g);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  expect_bitwise_equal(first, second, "exact hit");

  // And identical to a cache-less engine: the cache is invisible.
  expect_bitwise_equal(ReputationEngine().compute(g), first,
                       "cacheless equivalence");
}

TEST(ReputationCacheTest, SmallDeltaWarmStartsLargeDeltaColdStarts) {
  util::Xoshiro256 rng(606);
  TrustGraph g = random_sparse_trust_graph(2000, 10, rng);
  ReputationCache cache;
  ReputationOptions o;
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
  ReputationOptions o;
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

/// One TVOF run's outcome: the selected VO, FNV-1a hashes of its mapping,
/// of the global reputation's bits and of the journal (per iteration:
/// coalition, cost bits, local reputation bits, removed GSP), the cost
/// and value bits, and the next draw of the mechanism's RNG.
struct MechanismPin {
  std::uint64_t seed = 0;
  bool robust = false;
  bool success = false;
  std::uint64_t selected = 0;
  std::uint64_t mapping = 0;
  std::uint64_t cost = 0;
  std::uint64_t value = 0;
  std::uint64_t reputation = 0;
  std::uint64_t journal = 0;
  std::uint64_t rng_probe = 0;
  bool operator==(const MechanismPin&) const = default;
};

std::string format(const MechanismPin& p) {
  std::ostringstream os;
  os << std::hex << "{" << std::dec << p.seed << ", "
     << (p.robust ? "true" : "false") << ", "
     << (p.success ? "true" : "false") << std::hex << ", 0x" << p.selected
     << "ULL, 0x" << p.mapping << "ULL, 0x" << p.cost << "ULL, 0x" << p.value
     << "ULL, 0x" << p.reputation << "ULL, 0x" << p.journal << "ULL, 0x"
     << p.rng_probe << "ULL},";
  return os.str();
}

MechanismPin run_pinned(std::uint64_t seed, bool robust) {
  const ip::BnbAssignmentSolver solver;
  util::Xoshiro256 setup(seed);
  const ip::AssignmentInstance instance =
      ip::testing::random_instance(8, 16, setup);
  const TrustGraph trust = random_trust_graph(8, 0.4, setup);
  core::MechanismConfig cfg;
  if (robust) {
    cfg.reputation.robust.enabled = true;
    cfg.reputation.robust.fresh = {1, 6};
  }
  const core::TvofMechanism mech(solver, cfg);
  util::Xoshiro256 rng(seed * 17 + 1);
  const core::MechanismResult r =
      mech.run(core::FormationRequest{instance, trust, rng});

  MechanismPin p;
  p.seed = seed;
  p.robust = robust;
  p.success = r.success;
  p.selected = r.selected.bits();
  p.mapping = pin::fnv1a(r.mapping);
  p.cost = pin::bits(r.cost);
  p.value = pin::bits(r.value);
  p.reputation = pin::fnv1a(r.global_reputation);
  pin::Fnv1a journal;
  for (const core::IterationRecord& rec : r.journal) {
    journal.add(rec.coalition.bits())
        .add(rec.cost)
        .add(rec.avg_local_reputation)
        .add(rec.removed_gsp);
  }
  p.journal = journal.value();
  p.rng_probe = rng();
  return p;
}

// clang-format off
const std::vector<MechanismPin> kMechanismPins = {
    {5, false, true, 0x88ULL, 0xb2e7c0385ba442a5ULL, 0x405abdb178b1b301ULL, 0x40725093a1d39340ULL, 0x9e3504f8efe8cd1eULL, 0xbc1b288614261b9dULL, 0xa649539a32f95626ULL},
    {5, true, true, 0x9ULL, 0xe5184ee9e9ed03c5ULL, 0x405ba1497dd8c66aULL, 0x407217ada089ce66ULL, 0x34ccf6fa5d9e071aULL, 0x338d6dc776bb01bULL, 0x9e93cf1047ddd9abULL},
    {29, false, true, 0x30ULL, 0x2a5bd1ee65b4d204ULL, 0x4061c0df5fa8bdeaULL, 0x40701f90502ba10bULL, 0x359fe813111e6d0fULL, 0x62025a24cf23efbcULL, 0xbb2f23ea4c1dbe4eULL},
    {29, true, true, 0x30ULL, 0x2a5bd1ee65b4d204ULL, 0x4061c0df5fa8bdeaULL, 0x40701f90502ba10bULL, 0x2c74be4a4dcca2ULL, 0xec8eadbdd447c2c0ULL, 0xfa70e9f942eab0dfULL},
    {71, false, true, 0x21ULL, 0xb60fea3a7445e6e0ULL, 0x405d611d4574f056ULL, 0x4071a7b8aea2c3eaULL, 0xf07e2d7a3b61a1dcULL, 0x62e6dec136b05d4bULL, 0xc90f73c36a30e667ULL},
    {71, true, true, 0x21ULL, 0xb60fea3a7445e6e0ULL, 0x405d611d4574f056ULL, 0x4071a7b8aea2c3eaULL, 0x6d7b0f3e15c17981ULL, 0xbd9392be75f280a2ULL, 0xc90f73c36a30e667ULL},
};
// clang-format on

/// Mechanism-level golden pins: TVOF on three seeded 8-GSP instances,
/// under the standard and the robust (quarantining) reputation pipeline.
/// The values were recorded on the paper's dense iteration; the engine's
/// CSR iteration must reproduce every one of them bit for bit. A
/// mismatch prints the whole actual table in the table's own syntax.
TEST(DenseSparseEquivalenceTest, MechanismOutcomesBitIdentical) {
  std::vector<MechanismPin> got;
  for (const std::uint64_t seed : {5u, 29u, 71u}) {
    for (const bool robust : {false, true}) {
      got.push_back(run_pinned(seed, robust));
    }
  }
  std::ostringstream actual;
  for (const MechanismPin& p : got) actual << format(p) << "\n";
  ASSERT_EQ(got.size(), kMechanismPins.size())
      << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kMechanismPins[i])
        << "want " << format(kMechanismPins[i]) << "\n got  " << format(got[i]);
  }
}

/// The PR 3 attack harness must hold on the CSR pipeline: attacks are
/// injected identically, and the defended engine scores the attacked
/// graph bit-identically to the dense reference — so every resilience
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

    ReputationOptions o;
    o.robust.enabled = true;
    o.robust.fresh = injector.fresh_identities(0, 2);
    expect_bitwise_equal(dense_reference(o, g, nullptr),
                         ReputationEngine(o).compute(g),
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
