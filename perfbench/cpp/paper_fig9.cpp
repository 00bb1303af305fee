/// \file paper_fig9.cpp
/// paper_fig9 — closed loop, one caller thread: TVOF then RVOF on every
/// scenario of the paper protocol (m = 16 GSPs, ER(16, 0.1) trust,
/// Table I instances from the synthetic Atlas trace, sizes 256..8192,
/// 20k-node B&B budget, incremental warm start) with 40 repetitions
/// instead of the paper's 10: formation work varies several-fold between
/// scenarios of one size, and 40 draws per size keep a seed's mix close
/// to every other seed's.
///
/// Operation i runs block i / 12 (repetition block % 40) at size
/// (i % 12) / 2 with TVOF (even) or RVOF (odd), so every block of 12
/// holds each size and mechanism once and a pass stops only at block
/// ends. The first 480 operations (one sweep over all repetitions) are
/// the work unit: its exact counts and result checks do not depend on
/// speed.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "harness.hpp"
#include "ip/bnb.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using svo::core::MechanismResult;

constexpr std::size_t kReps = 40;
constexpr std::size_t kNodeBudget = 20'000;

struct Setup {
  std::unique_ptr<svo::sim::ScenarioFactory> factory;
  std::vector<std::size_t> sizes;
  /// scenarios[rep * sizes.size() + size_index]
  std::vector<svo::sim::Scenario> scenarios;
  double synth_ms = 0.0;
  std::vector<double> scenario_ms;
};

struct Op {
  const svo::sim::Scenario* scenario = nullptr;
  bool tvof = true;
};

Op op_at(const Setup& s, std::size_t i) {
  const std::size_t per_block = 2 * s.sizes.size();
  const std::size_t rep = (i / per_block) % kReps;
  const std::size_t j = i % per_block;
  return {&s.scenarios[rep * s.sizes.size() + j / 2], j % 2 == 0};
}

struct OpRecord {
  double ms = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t iterations = 0;
  std::uint64_t selected = 0;
  double cost = 0.0;
};

struct Pass {
  std::vector<OpRecord> ops;
  std::vector<MechanismResult> unit;  ///< results of the work unit
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Traced pass only.
  std::vector<double> run_ms;
  std::vector<double> self_ms;
  SolveLog unit_log;
};

std::size_t unit_ops(const Setup& s) { return kReps * 2 * s.sizes.size(); }

MechanismResult run_op(const Setup& s, std::size_t i,
                       const svo::core::TvofMechanism& tvof,
                       const svo::core::RvofMechanism& rvof) {
  const Op op = op_at(s, i);
  svo::util::Xoshiro256 rng(op.tvof ? op.scenario->tvof_seed : op.scenario->rvof_seed);
  const svo::core::FormationRequest request{op.scenario->instance.assignment,
                                            op.scenario->trust, rng};
  return op.tvof ? tvof.run(request) : rvof.run(request);
}

void build(const Args& args, Setup& s) {
  svo::sim::ExperimentConfig cfg;
  cfg.seed = sub_seed(args.seed, 0xF19);
  cfg.solver.max_nodes = kNodeBudget;
  s.sizes = cfg.task_sizes;
  const Clock::time_point t0 = Clock::now();
  s.factory = std::make_unique<svo::sim::ScenarioFactory>(cfg);
  s.synth_ms = seconds_between(t0, Clock::now()) * 1e3;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (const std::size_t n : s.sizes) {
      const Clock::time_point a = Clock::now();
      s.scenarios.push_back(s.factory->make(n, rep));
      s.scenario_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
    }
  }
  // Untimed warm-up: one block, every size under both mechanisms.
  const svo::ip::BnbAssignmentSolver solver(cfg.solver);
  const svo::core::TvofMechanism tvof(solver);
  const svo::core::RvofMechanism rvof(solver);
  for (std::size_t i = 0; i < 2 * s.sizes.size(); ++i) {
    (void)run_op(s, i, tvof, rvof);
  }
}

Pass run_pass(const Setup& s, double seconds, const svo::ip::AssignmentSolver& solver,
              const TracedSolver* traced) {
  const svo::core::TvofMechanism tvof(solver);
  const svo::core::RvofMechanism rvof(solver);
  const std::size_t block = 2 * s.sizes.size();
  const std::size_t unit = unit_ops(s);
  Pass pass;
  pass.unit.reserve(unit);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % block == 0 && i >= unit && seconds_between(t0, Clock::now()) >= seconds) break;
    const double busy0 = traced != nullptr ? traced->busy_on_this_thread() : 0.0;
    const Clock::time_point a = Clock::now();
    MechanismResult r = run_op(s, i, tvof, rvof);
    const double ms = seconds_between(a, Clock::now()) * 1e3;
    pass.ops.push_back({ms, r.stats.nodes, r.journal.size(), r.selected.bits(), r.cost});
    if (traced != nullptr) {
      pass.run_ms.push_back(ms);
      pass.self_ms.push_back(ms - (traced->busy_on_this_thread() - busy0) * 1e3);
      if (i + 1 == unit) pass.unit_log = traced->merged();
    }
    if (i < unit) pass.unit.push_back(std::move(r));
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.cpu_s = cpu_seconds() - cpu0;
  return pass;
}

/// Every selected VO's mapping must satisfy IP (10)-(13) on the VO's
/// restricted instance at the reported cost; every repeat of an
/// operation must reproduce the work unit's first run of it.
void check(const Setup& s, const Pass& pass, Report& report) {
  const std::size_t unit = pass.unit.size();
  for (std::size_t i = 0; i < unit; ++i) {
    const MechanismResult& r = pass.unit[i];
    if (!r.success) continue;
    const svo::ip::AssignmentInstance& inst = op_at(s, i).scenario->instance.assignment;
    std::vector<std::size_t> rows;
    const svo::ip::AssignmentInstance vo = inst.restrict_to(r.selected.mask(inst.num_gsps()), &rows);
    std::vector<std::size_t> row_of(inst.num_gsps(), SIZE_MAX);
    for (std::size_t k = 0; k < rows.size(); ++k) row_of[rows[k]] = k;
    svo::ip::Assignment local(r.mapping.size());
    bool in_vo = r.mapping.size() == inst.num_tasks();
    for (std::size_t t = 0; in_vo && t < r.mapping.size(); ++t) {
      in_vo = r.mapping[t] < row_of.size() && row_of[r.mapping[t]] != SIZE_MAX;
      if (in_vo) local[t] = row_of[r.mapping[t]];
    }
    if (!in_vo) {
      report.fail("paper_fig9 op " + std::to_string(i) + ": mapping leaves the selected VO");
      continue;
    }
    const std::string violated = svo::ip::check_feasible(vo, local);
    if (!violated.empty()) {
      report.fail("paper_fig9 op " + std::to_string(i) + ": " + violated);
      continue;
    }
    const double cost = svo::ip::assignment_cost(vo, local);
    if (std::abs(cost - r.cost) > 1e-9 * std::max(1.0, std::abs(cost))) {
      report.fail("paper_fig9 op " + std::to_string(i) + ": reported cost differs from assignment_cost");
    }
  }
  for (std::size_t i = unit; i < pass.ops.size(); ++i) {
    const OpRecord& a = pass.ops[i];
    const OpRecord& b = pass.ops[i % unit];
    if (a.nodes != b.nodes || a.iterations != b.iterations || a.selected != b.selected ||
        a.cost != b.cost) {
      report.fail("paper_fig9 op " + std::to_string(i) + ": repeat differs from its first run");
    }
  }
}

WorkCounts work_of(const Pass& pass) {
  double nodes = 0.0;
  double iterations = 0.0;
  for (const MechanismResult& r : pass.unit) {
    nodes += static_cast<double>(r.stats.nodes);
    iterations += static_cast<double>(r.journal.size());
  }
  return {{"ip.nodes", nodes}, {"ip.solve_calls", iterations}, {"core.iterations", iterations}};
}

}  // namespace

void run_paper_fig9(const Args& args, Report& report) {
  Setup s;
  std::vector<double> synth_ms;
  std::vector<double> scenario_ms;
  const double setup_s = timed_setups(kSetupRepeats, s, [&](Setup& out) {
    build(args, out);
    synth_ms.push_back(out.synth_ms);
    scenario_ms.push_back(mean(out.scenario_ms));
  });

  const svo::ip::BnbAssignmentSolver solver(s.factory->config().solver);
  const Pass plain = run_pass(s, args.seconds, solver, nullptr);
  check(s, plain, report);
  const WorkCounts work = work_of(plain);
  print_work("untraced", work);

  std::vector<double> latency;
  double successes = 0.0;
  std::vector<double> payoff;
  for (const OpRecord& op : plain.ops) latency.push_back(op.ms);
  for (std::size_t i = 0; i < plain.unit.size(); ++i) {
    const MechanismResult& r = plain.unit[i];
    if (!r.success) continue;
    successes += 1.0;
    payoff.push_back(r.payoff_share / op_at(s, i).scenario->instance.assignment.payment);
  }
  const double ops = static_cast<double>(plain.ops.size());
  report.attempted = plain.ops.size();
  report.set("setup_s", setup_s);
  report.set("throughput_per_s", ops / plain.wall_s);
  report.set("latency_ms_p50", percentile(latency, 0.50));
  report.set("latency_ms_p95", percentile(latency, 0.95));
  report.set("cpu_ms_per_op", plain.cpu_s * 1e3 / ops);
  report.set("success_ratio", successes / static_cast<double>(plain.unit.size()));
  report.set("vo_payoff_ratio", trimmed_mean(payoff, kPayoffTrim));
  report.set("trace.synth_ms", median(synth_ms));
  report.set("workload.scenario_ms_mean", median(scenario_ms));
  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  const TracedSolver traced(solver);
  const Pass tp = run_pass(s, args.seconds, traced, &traced);
  check(s, tp, report);
  WorkCounts traced_work = work_of(tp);
  traced_work["ip.solve_calls"] = static_cast<double>(tp.unit_log.calls);
  traced_work["ip.nodes"] = static_cast<double>(tp.unit_log.nodes);
  print_work("traced", traced_work);
  compare_work(work, traced_work, report);
  for (std::size_t i = 0; i < std::min(plain.ops.size(), tp.ops.size()); ++i) {
    if (plain.ops[i].nodes != tp.ops[i].nodes) {
      report.fail("paper_fig9 op " + std::to_string(i) + ": node count differs when traced");
      break;
    }
  }
  report.attempted += tp.ops.size();

  double run_s = 0.0;
  double self_s = 0.0;
  for (const double ms : tp.run_ms) run_s += ms * 1e-3;
  for (const double ms : tp.self_ms) self_s += ms * 1e-3;
  report_ip(traced.merged(), tp.unit_log, run_s, report);
  report.set("core.iterations", traced_work["core.iterations"]);
  report.set("core.run_ms_p50", percentile(tp.run_ms, 0.50));
  report.set("core.self_ms_mean", mean(tp.self_ms));
  report.set("core.self_share", run_s > 0.0 ? self_s / run_s : 0.0);
  const double plain_rate = ops / plain.cpu_s;
  const double traced_rate = static_cast<double>(tp.ops.size()) / tp.cpu_s;
  report.set("bench.tracing_overhead", traced_rate / plain_rate);
}

}  // namespace perfbench
