/// \file bench_trust_scale.cpp
/// Extension: sparse + incremental trust engine at population scales the
/// paper's dense pipeline (k <= 16) could never touch. Sweeps bounded-
/// degree trust graphs at 1k / 10k / 100k GSPs through the CSR-backed
/// ReputationEngine and measures the two things the scale path promises
/// (DESIGN.md §4i):
///
///  1. a full 100k-participant reputation round completes (cold), and
///  2. after a small edge perturbation the incremental cache re-converges
///     from the previous eigenvector in measurably fewer iterations.
///
/// The perturbation adds edges, so the cache rebuilds its operator; a
/// last step re-weights existing edges, which the cache patches in
/// place, so both operator regimes are covered.
///
/// Emits BENCH_trust_scale.json:
///  - dense_sparse_identical: at k = 48 the engine's CSR iteration
///    reproduces the dense reference (tests/trust/dense_reference.hpp)
///    bit for bit — standard, coalition and robust paths (gated exactly
///    by tools/bench_diff);
///  - exact_hit_identical per run: an unchanged graph is answered from
///    the cache with the identical result object (exact gate);
///  - per-run nnz / fill_pct: structure echoes of the seeded generator
///    (exact gate — drift means the generator or CSR build changed);
///  - cold/warm/reweight iteration counts and total_converge_iterations:
///    deterministic engine work (exact gates);
///    warm_iteration_reduction_pct (directional gate: larger reduction);
///  - build/cold/warm/reweight wall clock and spmv_ms_per_iteration
///    (reweight_ms / reweight_iterations: a patched operator leaves
///    little but the iterations to time): machine-bound (informational).
///
/// SVO_SEED overrides the root seed (default 20120910).
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "tests/trust/dense_reference.hpp"
#include "trust/reputation.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace svo;

constexpr std::size_t kDegree = 8;
constexpr std::size_t kPerturbedEdges = 12;  // < default warm_max_delta
constexpr std::size_t kReweightedEdges = 12;
constexpr std::size_t kIdentityGsps = 48;    // dense-reference check size

struct ScaleRun {
  std::size_t gsps = 0;
  std::size_t nnz = 0;
  double fill_pct = 0.0;
  double build_ms = 0.0;
  std::size_t cold_iterations = 0;
  double cold_ms = 0.0;
  std::size_t warm_iterations = 0;
  double warm_ms = 0.0;
  std::size_t reweight_iterations = 0;
  double reweight_ms = 0.0;
  double spmv_ms_per_iteration = 0.0;
  bool exact_hit_identical = false;
  bool converged = false;
  bool reweight_patched = false;
};

ScaleRun run_scale_point(std::size_t m, std::uint64_t seed) {
  ScaleRun run;
  run.gsps = m;

  util::Xoshiro256 rng(seed);
  const util::WallTimer build_timer;
  trust::TrustGraph g = trust::random_sparse_trust_graph(m, kDegree, rng);
  run.build_ms = build_timer.seconds() * 1e3;
  const linalg::SparseMatrix csr = g.normalized_sparse();
  run.nnz = csr.nnz();
  run.fill_pct = csr.fill_ratio() * 100.0;

  trust::ReputationCache cache;
  trust::ReputationOptions opts;  // Auto: CSR everywhere at these sizes
  opts.cache = &cache;
  const trust::ReputationEngine engine(opts);

  const util::WallTimer cold_timer;
  const trust::ReputationResult cold = engine.compute(g);
  run.cold_ms = cold_timer.seconds() * 1e3;
  run.cold_iterations = cold.iterations;
  run.converged = cold.converged;

  // Unchanged graph: the cache must answer with the identical object.
  const trust::ReputationResult replay = engine.compute(g);
  run.exact_hit_identical =
      cache.stats().exact_hits == 1 && replay.scores == cold.scores &&
      replay.iterations == cold.iterations;

  // Small perturbation: re-converge from the previous eigenvector.
  for (std::size_t e = 0; e < kPerturbedEdges; ++e) {
    const std::size_t i = rng.index(m);
    std::size_t j = rng.index(m);
    if (j == i) j = (j + 1) % m;
    g.set_trust(i, j, rng.uniform(0.1, 1.0));
  }
  const util::WallTimer warm_timer;
  const trust::ReputationResult warm = engine.compute(g);
  run.warm_ms = warm_timer.seconds() * 1e3;
  run.warm_iterations = warm.iterations;
  run.converged = run.converged && warm.converged &&
                  cache.stats().warm_starts == 1;

  // Re-weight existing edges: same columns per row, so the cache
  // patches its operator instead of rebuilding it.
  for (std::size_t e = 0; e < kReweightedEdges;) {
    const std::size_t i = rng.index(m);
    const std::vector<graph::Edge>& out = g.graph().out_edges(i);
    if (out.empty()) continue;
    g.set_trust(i, out[rng.index(out.size())].to, rng.uniform(0.1, 1.0));
    ++e;
  }
  const std::uint64_t patches = cache.stats().operator_patches;
  const util::WallTimer reweight_timer;
  const trust::ReputationResult reweighted = engine.compute(g);
  run.reweight_ms = reweight_timer.seconds() * 1e3;
  run.reweight_iterations = reweighted.iterations;
  run.reweight_patched = cache.stats().operator_patches == patches + 1;
  run.converged = run.converged && reweighted.converged &&
                  cache.stats().warm_starts == 2;
  run.spmv_ms_per_iteration =
      reweighted.iterations > 0
          ? run.reweight_ms / static_cast<double>(reweighted.iterations)
          : 0.0;
  return run;
}

/// Bit-identity of the engine's CSR iteration with the dense reference
/// over every reputation path, at a size where the dense loop is still
/// comfortable.
bool matches_dense_reference(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const trust::TrustGraph g =
      trust::random_trust_graph(kIdentityGsps, 0.25, rng);
  std::vector<std::size_t> coalition;
  for (std::size_t i = 0; i < kIdentityGsps; i += 3) coalition.push_back(i);

  trust::ReputationOptions o;
  const auto same = [](const trust::ReputationResult& a,
                       const trust::ReputationResult& b) {
    return a.scores == b.scores && a.iterations == b.iterations &&
           a.converged == b.converged && a.average == b.average;
  };
  using trust::testing::dense_reference;
  bool ok = same(dense_reference(o, g, nullptr),
                 trust::ReputationEngine(o).compute(g)) &&
            same(dense_reference(o, g, &coalition),
                 trust::ReputationEngine(o).compute(g, coalition));
  o.robust.enabled = true;
  o.robust.fresh = {0, 7, 23};
  ok = ok && same(dense_reference(o, g, nullptr),
                  trust::ReputationEngine(o).compute(g));
  return ok;
}

}  // namespace

int main() {
  const bench::Session session(
      "Scale", "sparse + incremental reputation at 1k-100k GSPs");
  const std::uint64_t seed = util::env_u64_or("SVO_SEED", 20120910);

  const bool identical = matches_dense_reference(seed);
  std::printf("engine == dense reference (k=%zu, all paths): %s\n\n",
              kIdentityGsps, identical ? "bit-identical" : "MISMATCH");

  const std::vector<std::size_t> sizes = {1'000, 10'000, 100'000};
  std::vector<ScaleRun> runs;
  std::printf("%10s %10s %9s %8s %9s %8s %9s %8s %9s %12s\n", "gsps", "nnz",
              "build_ms", "cold_it", "cold_ms", "warm_it", "warm_ms",
              "rewt_it", "rewt_ms", "spmv_ms/it");
  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    const ScaleRun run = run_scale_point(sizes[idx], seed + idx);
    std::printf("%10zu %10zu %9.2f %8zu %9.2f %8zu %9.2f %8zu %9.2f %12.4f\n",
                run.gsps, run.nnz, run.build_ms, run.cold_iterations,
                run.cold_ms, run.warm_iterations, run.warm_ms,
                run.reweight_iterations, run.reweight_ms,
                run.spmv_ms_per_iteration);
    runs.push_back(run);
  }

  std::size_t total_converge = 0;
  double reduction_sum = 0.0;
  bool all_ok = identical;
  for (const ScaleRun& run : runs) {
    total_converge += run.cold_iterations + run.warm_iterations;
    if (run.cold_iterations > 0) {
      reduction_sum +=
          static_cast<double>(run.cold_iterations - run.warm_iterations) /
          static_cast<double>(run.cold_iterations);
    }
    all_ok = all_ok && run.converged && run.exact_hit_identical &&
             run.reweight_patched && run.warm_iterations < run.cold_iterations;
  }
  const double warm_iteration_reduction =
      reduction_sum / static_cast<double>(runs.size());
  std::printf("\nwarm-start iteration reduction (mean): %.1f%%\n",
              warm_iteration_reduction * 100.0);
  std::printf("acceptance: %s\n", all_ok ? "PASS" : "FAIL");

  bench::Report report("trust_scale");
  obs::JsonWriter& j = report.json();
  j.kv("seed", seed);
  j.kv("degree", kDegree);
  j.kv("perturbed_edges", kPerturbedEdges);
  j.kv("dense_sparse_identical", identical);
  // Percent scale: the diff gate measures relative change against
  // max(|baseline|, 1), so a 0-1 fraction would only gate on absolute
  // drift; 0-100 restores the intended proportional 10% slack.
  j.kv("warm_iteration_reduction_pct", warm_iteration_reduction * 100.0);
  j.kv("total_converge_iterations", total_converge);
  j.key("runs").begin_array();
  for (const ScaleRun& run : runs) {
    j.begin_object();
    j.kv("gsps", run.gsps);
    j.kv("nnz", run.nnz);
    j.kv("fill_pct", run.fill_pct);
    j.kv("build_ms", run.build_ms);
    j.kv("cold_iterations", run.cold_iterations);
    j.kv("cold_ms", run.cold_ms);
    j.kv("warm_iterations", run.warm_iterations);
    j.kv("warm_ms", run.warm_ms);
    j.kv("reweight_iterations", run.reweight_iterations);
    j.kv("reweight_ms", run.reweight_ms);
    j.kv("spmv_ms_per_iteration", run.spmv_ms_per_iteration);
    j.kv("exact_hit_identical", run.exact_hit_identical);
    j.end_object();
  }
  j.end_array();
  report.write();
  return all_ok ? 0 : 1;
}
