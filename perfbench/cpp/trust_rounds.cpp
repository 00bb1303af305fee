/// \file trust_rounds.cpp
/// trust_rounds — closed loop, one thread: a 10k-GSP sparse trust graph
/// (each GSP rates 8 others). Round i re-weights a batch of seed-drawn
/// existing edges through TrustGraph::set_trust, then calls
/// ReputationEngine::compute through a ReputationCache. Seven rounds in
/// eight change kWarmEdges edges (within warm_max_delta: warm start from
/// the previous eigenvector); every eighth changes kColdEdges (beyond
/// it: cold start). Each pass starts from a copy of the same graph with
/// an empty cache and stops only at multiples of eight rounds; the first
/// kUnitRounds rounds are the work unit.
#include <algorithm>

#include "harness.hpp"
#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kGsps = 10'000;
constexpr std::size_t kDegree = 8;
constexpr std::size_t kWarmEdges = 16;
constexpr std::size_t kColdEdges = 96;
constexpr std::size_t kCycle = 8;
constexpr std::size_t kUnitRounds = 64;
constexpr std::size_t kWarmupRounds = 24;
/// Throughput and latency percentiles are medians over windows of this
/// many seconds of run time (about 120 rounds each).
constexpr double kWindowS = 2.0;

struct Setup {
  svo::trust::TrustGraph graph{0};
  std::uint64_t round_seed = 0;
};

/// Edge updates of round i: a pure function of (seed, i). Only existing
/// edges are re-weighted, so the graph, and with it each round's work
/// and the process's memory, stay the same size however many rounds a
/// pass runs.
void update(svo::trust::TrustGraph& g, std::uint64_t round_seed, std::size_t i) {
  svo::util::Xoshiro256 rng(sub_seed(round_seed, i));
  const std::size_t edges = i % kCycle == kCycle - 1 ? kColdEdges : kWarmEdges;
  for (std::size_t e = 0; e < edges;) {
    const std::size_t from = rng.index(kGsps);
    const std::vector<svo::graph::Edge>& out = g.graph().out_edges(from);
    if (out.empty()) continue;
    const std::size_t to = out[rng.index(out.size())].to;
    g.set_trust(from, to, rng.uniform(0.05, 1.0));
    ++e;
  }
}

struct Round {
  double ms = 0.0;
  double update_ms = 0.0;
  double compute_ms = 0.0;
  std::size_t iterations = 0;
  std::size_t nnz = 0;
  bool converged = false;
  bool warm = false;
};

struct Pass {
  explicit Pass(double seconds) : windows(seconds, kWindowS) {}

  std::vector<Round> rounds;
  WindowedLatency windows;
  svo::trust::ReputationCache::Stats unit_stats;
  double cpu_s = 0.0;
};

Pass run_pass(const Setup& s, double seconds, std::size_t min_rounds) {
  svo::trust::TrustGraph g = s.graph;  // fresh identity: the cache starts cold
  svo::trust::ReputationCache cache;
  svo::trust::ReputationOptions opts;
  opts.cache = &cache;
  const svo::trust::ReputationEngine engine(opts);
  (void)engine.compute(g);  // prime the cache (a cold start), untimed
  Pass pass(seconds);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % kCycle == 0 && i >= min_rounds && seconds_between(t0, Clock::now()) >= seconds) {
      break;
    }
    const std::uint64_t warm_before = cache.stats().warm_starts;
    Round r;
    const Clock::time_point a = Clock::now();
    update(g, s.round_seed, i);
    const Clock::time_point b = Clock::now();
    const svo::trust::ReputationResult rep = engine.compute(g);
    const Clock::time_point c = Clock::now();
    r.update_ms = seconds_between(a, b) * 1e3;
    r.compute_ms = seconds_between(b, c) * 1e3;
    r.ms = seconds_between(a, c) * 1e3;
    r.iterations = rep.iterations;
    r.converged = rep.converged;
    r.warm = cache.stats().warm_starts > warm_before;
    r.nnz = g.graph().edge_count();
    pass.rounds.push_back(r);
    pass.windows.add(seconds_between(t0, c), r.ms);
    if (i + 1 == kUnitRounds) pass.unit_stats = cache.stats();
  }
  pass.cpu_s = cpu_seconds() - cpu0;
  return pass;
}

void build(const Args& args, Setup& s) {
  svo::util::Xoshiro256 rng(sub_seed(args.seed, 0x7A));
  s.graph = svo::trust::random_sparse_trust_graph(kGsps, kDegree, rng);
  s.round_seed = sub_seed(args.seed, 0x7B);
  (void)run_pass(s, 0.0, kWarmupRounds);  // untimed warm-up on a copy
}

WorkCounts work_of(const Pass& pass) {
  double iterations = 0.0;
  double warm = 0.0;
  for (std::size_t i = 0; i < kUnitRounds; ++i) {
    iterations += static_cast<double>(pass.rounds[i].iterations);
    warm += pass.rounds[i].warm ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(kUnitRounds);
  return {{"trust.iterations_mean", iterations / n},
          {"trust.warm_ratio", warm / n},
          {"trust.iterations_saved", static_cast<double>(pass.unit_stats.iterations_saved)}};
}

void check(const Pass& pass, Report& report) {
  for (std::size_t i = 0; i < pass.rounds.size(); ++i) {
    const bool cold_round = i % kCycle == kCycle - 1;
    if (pass.rounds[i].warm == cold_round) {
      report.fail("trust_rounds round " + std::to_string(i) + (cold_round ? " warm-started" : " cold-started"));
    }
  }
}

}  // namespace

void run_trust_rounds(const Args& args, Report& report) {
  Setup s;
  const double setup_s = timed_setups(kSetupRepeats, s, [&](Setup& out) { build(args, out); });

  const Pass plain = run_pass(s, args.seconds, kUnitRounds);
  check(plain, report);
  const WorkCounts work = work_of(plain);
  print_work("untraced", work);

  double converged = 0.0;
  for (std::size_t i = 0; i < kUnitRounds; ++i) converged += plain.rounds[i].converged ? 1.0 : 0.0;
  const double rounds = static_cast<double>(plain.rounds.size());
  report.attempted = plain.rounds.size();
  report.set("setup_s", setup_s);
  report.set("throughput_per_s", plain.windows.median_rate());
  report.set("latency_ms_p50", plain.windows.median_percentile(0.50));
  report.set("latency_ms_p95", plain.windows.median_percentile(0.95));
  report.set("cpu_ms_per_op", plain.cpu_s * 1e3 / rounds);
  report.set("success_ratio", converged / static_cast<double>(kUnitRounds));
  // No VO is formed here; 1 keeps the metric defined and its bound vacuous.
  report.set("vo_payoff_ratio", 1.0);
  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  const Pass tp = run_pass(s, args.seconds, kUnitRounds);
  check(tp, report);
  const WorkCounts traced_work = work_of(tp);
  print_work("traced", traced_work);
  compare_work(work, traced_work, report);
  for (std::size_t i = 0; i < std::min(plain.rounds.size(), tp.rounds.size()); ++i) {
    if (plain.rounds[i].iterations != tp.rounds[i].iterations) {
      report.fail("trust_rounds round " + std::to_string(i) + ": iterations differ when traced");
      break;
    }
  }
  report.attempted += tp.rounds.size();

  std::vector<double> update_ms;
  std::vector<double> compute_ms;
  double nnz_iterations = 0.0;
  double compute_s = 0.0;
  for (const Round& r : tp.rounds) {
    update_ms.push_back(r.update_ms);
    compute_ms.push_back(r.compute_ms);
    compute_s += r.compute_ms * 1e-3;
    nnz_iterations += static_cast<double>(r.nnz) * static_cast<double>(r.iterations);
  }
  for (const auto& [name, value] : traced_work) report.set(name, value);
  report.set("trust.update_ms_mean", mean(update_ms));
  report.set("trust.compute_ms_p50", percentile(compute_ms, 0.50));
  report.set("linalg.ns_per_nnz_iter", nnz_iterations > 0.0 ? compute_s * 1e9 / nnz_iterations : 0.0);
  const double plain_rate = rounds / plain.cpu_s;
  const double traced_rate = static_cast<double>(tp.rounds.size()) / tp.cpu_s;
  report.set("bench.tracing_overhead", traced_rate / plain_rate);
}

}  // namespace perfbench
