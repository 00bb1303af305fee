/// \file bench_micro_solver.cpp
/// Microbenchmarks of the assignment solvers replacing CPLEX: greedy
/// construction + local search, the specialized B&B, and the literal
/// LP-relaxation B&B, across instance sizes. Counters report solution
/// cost so quality/time trade-offs are visible in one run.
///
/// After the google-benchmark suite, main() runs the warm-vs-cold
/// mechanism-loop comparison (shrinking-coalition TVOF under
/// WarmStartPolicy::Off vs ::Incremental with a reduced re-verification
/// budget) and writes BENCH_warmstart.json next to the binary.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/tvof.hpp"
#include "ip/annealing.hpp"
#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
#include "ip/lp_bnb.hpp"
#include "trust/trust_graph.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace svo;

ip::AssignmentInstance make_instance(std::size_t k, std::size_t n,
                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  ip::AssignmentInstance inst;
  inst.cost = linalg::Matrix(k, n);
  inst.time = linalg::Matrix(k, n);
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      inst.cost(g, t) = rng.uniform(1.0, 1000.0);
      inst.time(g, t) = rng.uniform(10.0, 500.0);
    }
  }
  inst.deadline = 500.0 * 2.0 * static_cast<double>(n) / static_cast<double>(k);
  inst.payment = 1000.0 * static_cast<double>(n);
  return inst;
}

void BM_GreedySolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(16, n, 7);
  const ip::GreedyAssignmentSolver solver;
  double cost = 0.0;
  for (auto _ : state) {
    const ip::AssignmentSolution sol = solver.solve(inst);
    cost = sol.cost;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["cost"] = cost;
}
BENCHMARK(BM_GreedySolver)->Arg(256)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_BnbSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(16, n, 7);
  ip::BnbOptions opts;
  opts.max_nodes = 20'000;
  const ip::BnbAssignmentSolver solver(opts);
  double cost = 0.0;
  double proven = 0.0;
  for (auto _ : state) {
    const ip::AssignmentSolution sol = solver.solve(inst);
    cost = sol.cost;
    proven = sol.proven_optimal() ? 1.0 : 0.0;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["cost"] = cost;
  state.counters["proven_optimal"] = proven;
}
BENCHMARK(BM_BnbSolver)->Arg(256)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_BnbSolverExactSmall(benchmark::State& state) {
  // Sizes where the B&B proves optimality outright.
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(3, n, 11);
  const ip::BnbAssignmentSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst));
  }
}
BENCHMARK(BM_BnbSolverExactSmall)->Arg(6)->Arg(10)->Arg(14);

void BM_LpBnbSolverLiteral(benchmark::State& state) {
  // The literal eqs. (9)-(14) formulation; only viable on small models.
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(3, n, 11);
  const ip::LpBnbAssignmentSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst));
  }
}
BENCHMARK(BM_LpBnbSolverLiteral)->Arg(4)->Arg(6)->Arg(8);

void BM_AnnealingSolver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(16, n, 7);
  ip::AnnealingOptions opts;
  opts.iterations = 30'000;
  const ip::AnnealingAssignmentSolver solver(opts);
  double cost = 0.0;
  for (auto _ : state) {
    const ip::AssignmentSolution sol = solver.solve(inst);
    cost = sol.cost;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["cost"] = cost;
}
BENCHMARK(BM_AnnealingSolver)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LocalSearchPolish(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ip::AssignmentInstance inst = make_instance(16, n, 13);
  const ip::Assignment seed =
      ip::greedy_construct(inst, ip::GreedyOptions::Order::TimeDescending);
  for (auto _ : state) {
    ip::Assignment a = seed;
    benchmark::DoNotOptimize(ip::local_search(inst, a, {}));
  }
}
BENCHMARK(BM_LocalSearchPolish)->Arg(256)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------
// Warm-vs-cold mechanism loop (BENCH_warmstart.json).
//
// The cold arm re-solves every shrunken coalition from scratch with the
// full node budget. The warm arm repairs the previous mapping, derives
// the solve kernel from the previous one, and re-verifies under BnbOptions::
// warm_max_nodes = max_nodes / 4 — the repaired incumbent already
// carries the predecessor's search effort, so re-paying the full budget
// per iteration is pure overhead. The JSON records, per run, whether
// both arms selected the same VO at the same cost (they should; the
// reduced budget only truncates searches that were going to truncate
// anyway) alongside the node and wall-clock totals.

struct WarmstartRun {
  std::size_t n = 0;
  std::size_t k = 0;
  std::uint64_t seed = 0;
  std::size_t cold_nodes = 0;
  std::size_t warm_nodes = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::size_t repair_moves = 0;
  bool warm_used = false;
  bool same_vo = false;
  bool same_cost = false;
};

WarmstartRun run_warmstart_case(std::size_t k, std::size_t n,
                                std::uint64_t seed) {
  constexpr std::size_t kBudget = 20'000;
  const ip::AssignmentInstance inst = make_instance(k, n, seed);
  util::Xoshiro256 trust_rng(seed ^ 0x5ee0);
  const trust::TrustGraph trust = trust::random_trust_graph(k, 0.4, trust_rng);

  ip::BnbOptions cold_opts;
  cold_opts.max_nodes = kBudget;
  const ip::BnbAssignmentSolver cold_solver(cold_opts);
  const core::TvofMechanism cold_mech(cold_solver);

  ip::BnbOptions warm_opts = cold_opts;
  warm_opts.warm_max_nodes = kBudget / 4;
  const ip::BnbAssignmentSolver warm_solver(warm_opts);
  const core::TvofMechanism warm_mech(warm_solver);

  WarmstartRun out;
  out.n = n;
  out.k = k;
  out.seed = seed;

  util::Xoshiro256 rng_cold(seed + 1);
  util::WallTimer t_cold;
  const core::MechanismResult cold =
      cold_mech.run(core::FormationRequest{inst, trust, rng_cold,
                                           game::Coalition{},
                                           core::WarmStartPolicy::Off});
  out.cold_ms = t_cold.seconds() * 1e3;
  out.cold_nodes = cold.stats.nodes;

  util::Xoshiro256 rng_warm(seed + 1);
  util::WallTimer t_warm;
  const core::MechanismResult warm =
      warm_mech.run(core::FormationRequest{inst, trust, rng_warm,
                                           game::Coalition{},
                                           core::WarmStartPolicy::Incremental});
  out.warm_ms = t_warm.seconds() * 1e3;
  out.warm_nodes = warm.stats.nodes;
  out.repair_moves = warm.stats.repair_moves;
  out.warm_used = warm.stats.warm_start_used;
  out.same_vo = warm.success == cold.success &&
                warm.selected.bits() == cold.selected.bits();
  out.same_cost = warm.cost == cold.cost;
  return out;
}

void run_warmstart_bench() {
  // Paper scale (Table 1): 8192 tasks x 16 GSPs. Smaller sizes are
  // covered by the exact-regime property tests; at this scale the
  // per-iteration searches are budget-bound, which is exactly where the
  // reduced re-verification budget pays off.
  std::vector<WarmstartRun> runs;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    runs.push_back(run_warmstart_case(16, 8192, seed));
  }
  std::size_t cold_total = 0;
  std::size_t warm_total = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  bool all_identical = true;
  for (const WarmstartRun& r : runs) {
    cold_total += r.cold_nodes;
    warm_total += r.warm_nodes;
    cold_ms += r.cold_ms;
    warm_ms += r.warm_ms;
    all_identical = all_identical && r.same_vo && r.same_cost;
  }
  const double reduction =
      warm_total > 0 ? static_cast<double>(cold_total) /
                           static_cast<double>(warm_total)
                     : 0.0;
  // Mechanism-loop wall time per B&B node: the cost of a node including
  // each solve's set-up. Wall clock, so informational (no rule gates it).
  const auto ns_per_node = [](double ms, std::size_t nodes) {
    return nodes > 0 ? ms * 1e6 / static_cast<double>(nodes) : 0.0;
  };
  const double cold_ns = ns_per_node(cold_ms, cold_total);
  const double warm_ns = ns_per_node(warm_ms, warm_total);

  bench::Report report("warmstart");
  obs::JsonWriter& j = report.json();
  j.kv("mechanism", "tvof");
  j.kv("budget_max_nodes", std::size_t{20'000});
  j.kv("warm_max_nodes", std::size_t{5'000});
  j.key("runs").begin_array();
  for (const WarmstartRun& r : runs) {
    j.begin_object();
    j.kv("n", r.n).kv("k", r.k).kv("seed", r.seed);
    j.kv("cold_nodes", r.cold_nodes).kv("warm_nodes", r.warm_nodes);
    j.kv("cold_ms", r.cold_ms).kv("warm_ms", r.warm_ms);
    j.kv("repair_moves", r.repair_moves);
    j.kv("warm_start_used", r.warm_used);
    j.kv("same_vo", r.same_vo).kv("same_cost", r.same_cost);
    j.end_object();
  }
  j.end_array();
  j.key("aggregate").begin_object();
  j.kv("total_cold_nodes", cold_total);
  j.kv("total_warm_nodes", warm_total);
  j.kv("node_reduction", reduction);
  j.kv("all_outcomes_identical", all_identical);
  j.key("bnb_ns_per_node").begin_object();
  j.kv("cold", cold_ns).kv("warm", warm_ns);
  j.end_object();
  j.end_object();
  report.write();
  std::printf(
      "\nwarmstart mechanism loop: cold %zu nodes, warm %zu nodes "
      "(%.2fx reduction), outcomes identical: %s\n"
      "bnb_ns_per_node: cold %.1f, warm %.1f\n",
      cold_total, warm_total, reduction, all_identical ? "yes" : "NO",
      cold_ns, warm_ns);
}

}  // namespace

int main(int argc, char** argv) {
  const svo::obs::TraceSession trace;  // env-driven: SVO_TRACE / SVO_METRICS
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_warmstart_bench();
  return 0;
}
