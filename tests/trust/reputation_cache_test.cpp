/// The incremental ReputationCache across many rounds (DESIGN.md §4i).
///
/// `MultiRoundResultsArePinned` records, for 40 seeded rounds on one
/// 2 000-GSP graph, each round's iteration count, warm flag, converged
/// flag and an FNV-1a hash of the score bits. The rounds walk every
/// cache regime: small re-weights (warm), large re-weights (cold), an
/// added and a removed edge, a row emptied to dangling and refilled, a
/// burst that outruns the change log, a power-options change, an exact
/// hit, a copy (fresh uid) and a move (stolen uid). The table was
/// recorded before the cache kept the iteration operator between
/// computes; how the cache gets its operator must never show here.
///
/// A mismatch prints the whole actual row in the table's own syntax.
#include "trust/reputation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "tests/pin_hash.hpp"
#include "util/rng.hpp"

namespace svo::trust {
namespace {

using pin::fnv1a;

struct RoundPin {
  std::size_t iterations = 0;
  bool warm = false;
  bool converged = false;
  std::uint64_t scores = 0;  ///< fnv1a of the score bits

  bool operator==(const RoundPin&) const = default;
};

std::string describe(const RoundPin& p) {
  std::ostringstream os;
  os << "{" << p.iterations << ", " << (p.warm ? "true" : "false") << ", "
     << (p.converged ? "true" : "false") << ", 0x" << std::hex << p.scores
     << "ULL}";
  return os.str();
}

/// Re-weight `count` existing edges drawn by `rng`: a new weight in
/// (0, 1] on an edge that is already there, so no edge appears or
/// disappears and no row changes its set of trusted GSPs.
void reweight(TrustGraph& g, std::size_t count, util::Xoshiro256& rng) {
  for (std::size_t done = 0; done < count;) {
    const std::size_t i = rng.index(g.size());
    const auto& out = g.graph().out_edges(i);
    if (out.empty()) continue;
    const std::size_t j = out[rng.index(out.size())].to;
    g.set_trust(i, j, 1.0 - rng.uniform(0.0, 1.0));
    ++done;
  }
}

/// A GSP pair with no edge between them yet.
std::pair<std::size_t, std::size_t> absent_edge(const TrustGraph& g,
                                                util::Xoshiro256& rng) {
  for (;;) {
    const std::size_t i = rng.index(g.size());
    const std::size_t j = rng.index(g.size());
    if (i != j && g.trust(i, j) == 0.0) return {i, j};
  }
}

constexpr RoundPin kRoundPins[] = {
    {20, false, true, 0x1fed9f26d253230ULL},
    {16, true, true, 0xfd69da773eef882cULL},
    {16, true, true, 0xca1b00022717cea2ULL},
    {16, true, true, 0xbe3d61e86b45bc7dULL},
    {16, true, true, 0x809b41243c0ffbf1ULL},
    {16, true, true, 0x12df7c123c7a6182ULL},
    {16, true, true, 0xf9b4945de238d84ULL},
    {20, false, true, 0x2ab4940a2255c988ULL},
    {16, true, true, 0x9d3958b96a0ae2a1ULL},
    {15, true, true, 0x597b2a2ae7d7d343ULL},
    {16, true, true, 0xa50a4170d46c2b15ULL},
    {15, true, true, 0xd6a0132e2cb9d158ULL},
    {16, true, true, 0x147e4ea6cfc2391aULL},
    {17, true, true, 0x2c6f38e918e33ad3ULL},
    {16, true, true, 0x9a5f07924a065299ULL},
    {17, true, true, 0x5054441abcad143bULL},
    {16, true, true, 0xf245ab239e9f9054ULL},
    {20, false, true, 0x4e7a3166c8f43591ULL},
    {16, true, true, 0xd1cb3a82026e3deULL},
    {16, true, true, 0x506f6db5c44c2a05ULL},
    {22, false, true, 0xe2d0e330190ff165ULL},
    {19, true, true, 0xa6fcb9bca57711a8ULL},
    {19, false, true, 0xa6fcb9bca57711a8ULL},
    {22, false, true, 0x9636bb47e9af32bbULL},
    {18, true, true, 0x5dff1c389211a446ULL},
    {18, false, true, 0x5dff1c389211a446ULL},
    {19, true, true, 0x8d35c50cfbe69ccbULL},
    {22, false, true, 0x9636bb47e9af32bbULL},
    {18, true, true, 0x3603d2380a354c5aULL},
    {19, true, true, 0x3ee7bc119f09242cULL},
    {19, true, true, 0x47d2ce930f1c2811ULL},
    {22, false, true, 0x34625c1a1e05151bULL},
    {18, true, true, 0xf9ce828f88c09d14ULL},
    {18, true, true, 0x42933d708e58ef3aULL},
    {18, true, true, 0x824ff2120dceec7dULL},
    {22, false, true, 0x4724067cd2938dbdULL},
    {18, true, true, 0x56f1808f92329bd6ULL},
    {18, true, true, 0xd35445b7cfecf9fdULL},
    {19, true, true, 0x2d33e06b664bd489ULL},
    {22, false, true, 0x7361f6a47af75904ULL},
};

TEST(ReputationCacheTest, MultiRoundResultsArePinned) {
  util::Xoshiro256 rng(20121014);
  TrustGraph g = random_sparse_trust_graph(2000, 8, rng);
  ReputationCache cache;
  ReputationOptions o;  // Auto: sparse at 2 000 GSPs
  o.cache = &cache;

  std::vector<RoundPin> got;
  const auto round = [&](const TrustGraph& graph) {
    const std::uint64_t warm_before = cache.stats().warm_starts;
    const ReputationResult r = ReputationEngine(o).compute(graph);
    got.push_back({r.iterations, cache.stats().warm_starts > warm_before,
                   r.converged, fnv1a(r.scores)});
  };

  round(g);  // 0: first sight, cold
  for (int k = 0; k < 6; ++k) {  // 1-6: 16-edge re-weights, warm
    reweight(g, 16, rng);
    round(g);
  }
  reweight(g, 96, rng);  // 7: past warm_max_delta, cold
  round(g);
  reweight(g, 16, rng);  // 8
  round(g);

  const auto [ai, aj] = absent_edge(g, rng);  // 9: an added edge
  g.set_trust(ai, aj, 0.7);
  round(g);
  reweight(g, 16, rng);  // 10
  round(g);
  g.set_trust(ai, aj, 0.0);  // 11: the same edge removed again
  round(g);
  reweight(g, 16, rng);  // 12
  round(g);

  // 13: a row emptied, so its GSP trusts nobody (dangling) ...
  const std::size_t row = 1 + rng.index(g.size() - 1);
  std::vector<std::size_t> emptied;
  for (const graph::Edge& e : g.graph().out_edges(row)) emptied.push_back(e.to);
  ASSERT_FALSE(emptied.empty());
  for (const std::size_t j : emptied) g.set_trust(row, j, 0.0);
  round(g);
  reweight(g, 16, rng);  // 14
  round(g);
  for (const std::size_t j : emptied) {  // 15: ... and refilled
    g.set_trust(row, j, 1.0 - rng.uniform(0.0, 1.0));
  }
  round(g);
  reweight(g, 16, rng);  // 16
  round(g);

  reweight(g, 1100, rng);  // 17: the change log loses the window
  round(g);
  for (int k = 0; k < 2; ++k) {  // 18-19
    reweight(g, 16, rng);
    round(g);
  }

  o.power.epsilon = 1e-10;  // 20: new power options, same graph
  round(g);
  reweight(g, 16, rng);  // 21
  round(g);
  round(g);  // 22: unchanged graph, exact hit

  TrustGraph copy(g);  // 23: a copy gets a fresh uid
  round(copy);
  reweight(copy, 16, rng);  // 24
  round(copy);
  TrustGraph moved(std::move(copy));  // 25: a move keeps the uid
  round(moved);
  reweight(moved, 16, rng);  // 26
  round(moved);
  round(g);  // 27: back to the original graph object, cold

  for (int k = 0; k < 12; ++k) {  // 28-39: re-weights, every 4th large
    reweight(g, k % 4 == 3 ? 96 : 16, rng);
    if (k == 5) {  // one round also adds an edge amid its re-weights
      const auto [bi, bj] = absent_edge(g, rng);
      g.set_trust(bi, bj, 0.4);
    }
    round(g);
  }

  ASSERT_EQ(got.size(), std::size(kRoundPins));
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], kRoundPins[k])
        << "round " << k << ": actual " << describe(got[k]) << ",";
  }
}

/// (operator patches, operator builds) one compute adds to the stats.
using OperatorWork = std::pair<std::uint64_t, std::uint64_t>;
constexpr OperatorWork kPatch{1, 0};
constexpr OperatorWork kBuild{0, 1};
constexpr OperatorWork kNeither{0, 0};

OperatorWork operator_work(const ReputationOptions& o, const TrustGraph& g) {
  const ReputationCache::Stats before = o.cache->stats();
  (void)ReputationEngine(o).compute(g);
  const ReputationCache::Stats& after = o.cache->stats();
  return {after.operator_patches - before.operator_patches,
          after.operator_builds - before.operator_builds};
}

TEST(ReputationCacheTest, ReweightsPatchTheOperatorStructuralChangesRebuild) {
  util::Xoshiro256 rng(4242);
  TrustGraph g = random_sparse_trust_graph(500, 6, rng);
  ReputationCache cache;
  ReputationOptions o;  // Auto: sparse at 500 GSPs
  o.cache = &cache;

  EXPECT_EQ(operator_work(o, g), kBuild);  // first sight
  reweight(g, 16, rng);
  EXPECT_EQ(operator_work(o, g), kPatch);  // warm re-weight
  reweight(g, 96, rng);
  EXPECT_EQ(operator_work(o, g), kPatch);  // cold re-weight
  EXPECT_EQ(operator_work(o, g), kNeither);  // exact hit
  o.power.epsilon = 1e-11;
  EXPECT_EQ(operator_work(o, g), kPatch);  // options only: nothing to write

  const auto [i, j] = absent_edge(g, rng);
  g.set_trust(i, j, 0.5);
  EXPECT_EQ(operator_work(o, g), kBuild);  // added edge
  g.set_trust(i, j, 0.0);
  EXPECT_EQ(operator_work(o, g), kBuild);  // removed edge

  std::vector<std::size_t> emptied;
  for (const graph::Edge& e : g.graph().out_edges(i)) emptied.push_back(e.to);
  for (const std::size_t t : emptied) g.set_trust(i, t, 0.0);
  EXPECT_EQ(operator_work(o, g), kBuild);  // row turned dangling
  for (const std::size_t t : emptied) g.set_trust(i, t, 0.3);
  EXPECT_EQ(operator_work(o, g), kBuild);  // and back
  reweight(g, 1100, rng);
  EXPECT_EQ(operator_work(o, g), kBuild);  // change log lost the window

  TrustGraph copy(g);
  EXPECT_EQ(operator_work(o, copy), kBuild);  // fresh uid
  TrustGraph moved(std::move(copy));
  EXPECT_EQ(operator_work(o, moved), kNeither);  // stolen uid: exact hit
  reweight(moved, 16, rng);
  EXPECT_EQ(operator_work(o, moved), kPatch);
  EXPECT_EQ(operator_work(o, g), kBuild);  // another graph object

  cache.clear();
  EXPECT_EQ(cache.stats().operator_builds, 0u);
  EXPECT_EQ(operator_work(o, g), kBuild);  // a cleared cache holds nothing
}

TEST(ReputationCacheTest, PatchedColdRoundsEqualCachelessComputes) {
  util::Xoshiro256 rng(9001);
  TrustGraph g = random_sparse_trust_graph(800, 8, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  o.warm_max_delta = 0;  // every changed round starts cold
  ReputationOptions plain = o;
  plain.cache = nullptr;

  (void)ReputationEngine(o).compute(g);
  for (int round = 0; round < 4; ++round) {
    reweight(g, round == 3 ? 200 : 8, rng);
    const ReputationResult cached = ReputationEngine(o).compute(g);
    const ReputationResult fresh = ReputationEngine(plain).compute(g);
    EXPECT_EQ(cached.iterations, fresh.iterations) << "round " << round;
    EXPECT_EQ(cached.scores, fresh.scores) << "round " << round;
  }
  EXPECT_EQ(cache.stats().operator_patches, 4u);
  EXPECT_EQ(cache.stats().cold_starts, 5u);
}

/// Normalized values are quotients, so a re-weight can change which of
/// them are stored without adding or removing an edge: an entry that
/// underflows to 0, or a row whose sum overflows so that every entry
/// becomes 0 and the row dangles. Both change stored columns, so both
/// rebuild, and results still equal a cache-less compute.
TEST(ReputationCacheTest, ReweightThatZeroesEntriesRebuilds) {
  TrustGraph g(70);
  for (std::size_t i = 0; i < 70; ++i) {
    g.set_trust(i, (i + 1) % 70, 1.0);
    g.set_trust(i, (i + 7) % 70, 0.5);
  }
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  o.warm_max_delta = 0;
  ReputationOptions plain = o;
  plain.cache = nullptr;

  g.set_trust(3, 4, tiny);
  g.set_trust(3, 10, 1.0);  // row 3: tiny / 1 == tiny, stored
  EXPECT_EQ(operator_work(o, g), kBuild);
  ASSERT_EQ(g.normalized_sparse().row(3).size(), 2u);
  g.set_trust(3, 10, 2.0);  // tiny / 2 rounds to 0: no longer stored
  ASSERT_EQ(g.normalized_sparse().row(3).size(), 1u);
  EXPECT_EQ(operator_work(o, g), kBuild);
  EXPECT_EQ(ReputationEngine(o).compute(g).scores,
            ReputationEngine(plain).compute(g).scores);

  g.set_trust(5, 6, huge);
  g.set_trust(5, 12, 1.0);  // huge / huge and 1 / huge: both stored
  EXPECT_EQ(operator_work(o, g), kPatch);
  g.set_trust(5, 12, huge);  // the row sum overflows: row 5 dangles
  ASSERT_TRUE(g.normalized_sparse().row(5).empty());
  EXPECT_EQ(operator_work(o, g), kBuild);
  EXPECT_EQ(ReputationEngine(o).compute(g).scores,
            ReputationEngine(plain).compute(g).scores);
}

/// Every size solves on the CSR operator, so the cache serves
/// paper-scale graphs as well: repeating a 16-GSP compute is an exact
/// hit, bit-equal to a compute without a cache.
TEST(ReputationCacheTest, PaperScaleRepeatIsAnExactHit) {
  util::Xoshiro256 rng(16);
  const TrustGraph g = random_trust_graph(16, 0.4, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  const ReputationEngine engine(o);

  (void)engine.compute(g);
  const ReputationResult again = engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 1u);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  const ReputationResult plain = ReputationEngine().compute(g);
  EXPECT_EQ(again.scores, plain.scores);
  EXPECT_EQ(again.iterations, plain.iterations);
  EXPECT_EQ(again.converged, plain.converged);
  EXPECT_EQ(again.average, plain.average);
}

/// RAII: record telemetry for one test, then leave the recorder off and
/// empty for the next.
struct TracingOn {
  TracingOn() { obs::Recorder::instance().enable(); }
  ~TracingOn() {
    obs::Recorder::instance().disable();
    obs::Recorder::instance().clear();
  }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

TEST(ReputationCacheTest, CountersCountOnlyWorkDone) {
  const TracingOn tracing;
  obs::MetricRegistry& m = obs::Recorder::instance().metrics();
  const auto value = [&](const char* name) { return m.counter_value(name); };
  util::Xoshiro256 rng(77);
  TrustGraph g = random_sparse_trust_graph(400, 6, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;

  const std::uint64_t trust0 = value("trust.reputation.power_iterations");
  const std::uint64_t linalg0 = value("linalg.sparse_power.iterations");
  const std::uint64_t builds0 = value("trust.reputation.operator_builds");
  const ReputationResult first = ReputationEngine(o).compute(g);
  EXPECT_EQ(value("trust.reputation.power_iterations") - trust0,
            first.iterations);
  EXPECT_EQ(value("trust.reputation.operator_builds") - builds0, 1u);

  // An exact hit runs no power iteration, so it counts none.
  const std::uint64_t trust1 = value("trust.reputation.power_iterations");
  const std::uint64_t hits1 = value("trust.reputation.cache_exact_hits");
  (void)ReputationEngine(o).compute(g);
  EXPECT_EQ(value("trust.reputation.cache_exact_hits") - hits1, 1u);
  EXPECT_EQ(value("trust.reputation.power_iterations"), trust1);

  const std::uint64_t patches2 = value("trust.reputation.operator_patches");
  reweight(g, 16, rng);
  const ReputationResult warm = ReputationEngine(o).compute(g);
  EXPECT_EQ(value("trust.reputation.operator_patches") - patches2, 1u);
  // Both layers agree on the iterations actually run.
  EXPECT_EQ(value("trust.reputation.power_iterations") - trust0,
            first.iterations + warm.iterations);
  EXPECT_EQ(value("linalg.sparse_power.iterations") - linalg0,
            first.iterations + warm.iterations);
}

}  // namespace
}  // namespace svo::trust
