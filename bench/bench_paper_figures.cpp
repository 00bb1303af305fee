/// \file bench_paper_figures.cpp
/// Figs. 1-9: the paper's evaluation protocol (Section IV) run once, TVOF
/// and RVOF on every program size x repetition of bench::paper_config(),
/// with every figure printed from that one sweep:
///  - Figs. 1-3 and 9 from the per-size aggregates;
///  - Fig. 4 from the n = 256 TVOF runs, next to one TVOF run per program
///    that selects by max(payoff x reputation) instead;
///  - Figs. 5-8 from the n = 256 TVOF and RVOF journals of repetitions 0
///    (program A) and 1 (program B).
/// The sweep runs serially, so Fig. 9's seconds are uncontended. Under a
/// reduced protocol (SVO_REPS, SVO_SIZES) Figs. 4-8 print the n = 256
/// programs the sweep ran, or one line saying they were skipped.
///
/// Paper findings:
///  - Fig. 1: both mechanisms yield (statistically) the same payoff,
///    because both select the max-individual-payoff VO from their lists;
///  - Fig. 2: TVOF's VOs are not necessarily smaller than RVOF's;
///  - Fig. 3: TVOF's VOs always have the higher average global
///    reputation (eq. (7));
///  - Fig. 4: in most programs the two selections coincide, so TVOF's
///    pick is already the Pareto-optimal one;
///  - Figs. 5-6: removing the lowest-reputation GSP raises both series,
///    and the final VO has the highest individual payoff;
///  - Figs. 7-8: with random removal the reputation fluctuates instead;
///  - Fig. 9: both times grow with the task count. Absolute values depend
///    on the solver (the paper ran CPLEX on 2012 hardware), so only the
///    shape is comparable.
#include <algorithm>

#include "bench/common.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"

namespace {

using namespace svo;

constexpr std::size_t kProgramTasks = 256;  ///< Figs. 4-8's program size

/// Solver work of one (size, mechanism) cell, for Fig. 9.
struct Work {
  long long nodes = 0;
  std::size_t solves = 0;
  std::size_t budget_hits = 0;  ///< solves stopped by the node budget
  /// Nodes of solves that ended Unknown: the budget ran out before any
  /// incumbent, so the work found nothing and proved nothing.
  long long no_incumbent_nodes = 0;
  std::size_t runs = 0;
  /// Runs whose last solve, the one that stops Algorithm 1, ended
  /// Infeasible: the loop stopped on a proof, not on a spent budget.
  std::size_t terminal_infeasible = 0;

  void add(const core::MechanismResult& r) {
    nodes += static_cast<long long>(r.stats.nodes);
    ++runs;
    if (!r.journal.empty() &&
        r.journal.back().stats.status == ip::AssignStatus::Infeasible) {
      ++terminal_infeasible;
    }
    for (const core::IterationRecord& it : r.journal) {
      ++solves;
      if (it.stats.status == ip::AssignStatus::Feasible ||
          it.stats.status == ip::AssignStatus::Unknown) {
        ++budget_hits;
      }
      if (it.stats.status == ip::AssignStatus::Unknown) {
        no_incumbent_nodes += static_cast<long long>(it.stats.nodes);
      }
    }
  }
  [[nodiscard]] double hit_share() const {
    return solves > 0 ? static_cast<double>(budget_hits) /
                            static_cast<double>(solves)
                      : 0.0;
  }
  [[nodiscard]] double no_incumbent_share() const {
    return nodes > 0 ? static_cast<double>(no_incumbent_nodes) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
  [[nodiscard]] double terminal_infeasible_share() const {
    return runs > 0 ? static_cast<double>(terminal_infeasible) /
                          static_cast<double>(runs)
                    : 0.0;
  }
};

/// What the figures need beyond the sweep's aggregates.
struct Runs {
  std::vector<Work> tvof_work;  ///< per size
  std::vector<Work> rvof_work;
  std::vector<core::MechanismResult> tvof_programs;  ///< n = 256, per rep
  std::vector<core::MechanismResult> rvof_programs;
};

void heading(const char* figure, const char* what) {
  std::printf("\n--- %s: %s ---\n", figure, what);
}

void fig1(const sim::SweepResult& sweep) {
  heading("Fig. 1", "GSP individual payoff vs number of tasks");
  util::Table table({"tasks", "TVOF payoff", "RVOF payoff", "TVOF stddev",
                     "RVOF stddev", "ratio TVOF/RVOF"});
  table.set_precision(2);
  for (const auto& p : sweep.points) {
    const double ratio = p.rvof.payoff.mean() > 0.0
                             ? p.tvof.payoff.mean() / p.rvof.payoff.mean()
                             : 0.0;
    table.add_row({static_cast<long long>(p.num_tasks),
                   p.tvof.payoff.mean(), p.rvof.payoff.mean(),
                   p.tvof.payoff.stddev(), p.rvof.payoff.stddev(), ratio});
  }
  bench::emit(table, "fig1_payoff.csv");
  std::printf("\npaper shape: TVOF/RVOF payoff ratio ~= 1 at every size "
              "(both select the max-share VO).\n");
}

void fig2(const sim::SweepResult& sweep) {
  heading("Fig. 2", "final VO size vs number of tasks");
  util::Table table({"tasks", "TVOF size", "RVOF size", "TVOF min..max",
                     "RVOF min..max"});
  table.set_precision(2);
  const auto span = [](const util::RunningStats& s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f..%.0f", s.min(), s.max());
    return std::string(buf);
  };
  for (const auto& p : sweep.points) {
    table.add_row({static_cast<long long>(p.num_tasks),
                   p.tvof.vo_size.mean(), p.rvof.vo_size.mean(),
                   span(p.tvof.vo_size), span(p.rvof.vo_size)});
  }
  bench::emit(table, "fig2_vo_size.csv");
}

void fig3(const sim::SweepResult& sweep) {
  heading("Fig. 3", "average global reputation of the final VO");
  util::Table table({"tasks", "TVOF avg reputation", "RVOF avg reputation",
                     "TVOF advantage"});
  table.set_precision(4);
  std::size_t tvof_wins = 0;
  for (const auto& p : sweep.points) {
    const double adv =
        p.tvof.avg_reputation.mean() - p.rvof.avg_reputation.mean();
    tvof_wins += adv >= 0.0;
    table.add_row({static_cast<long long>(p.num_tasks),
                   p.tvof.avg_reputation.mean(),
                   p.rvof.avg_reputation.mean(), adv});
  }
  bench::emit(table, "fig3_reputation.csv");
  std::printf("\nTVOF >= RVOF at %zu/%zu sizes "
              "(paper: higher in all cases).\n",
              tvof_wins, sweep.points.size());
}

/// The product-rule pick is a real TVOF run on the sweep's scenario and
/// removal stream, so it differs from the sweep's only in its selection.
void fig4(const sim::ExperimentRunner& runner, const Runs& runs) {
  heading("Fig. 4", "per-program payoffs: TVOF pick vs max(payoff x reputation)");
  const ip::BnbAssignmentSolver solver(runner.config().solver);
  core::MechanismConfig product_rule = runner.config().mechanism;
  product_rule.selection = core::SelectionRule::MaxPayoffReputationProduct;
  const core::TvofMechanism tvof_product(solver, product_rule);

  util::Table table({"program", "TVOF payoff", "max-product payoff",
                     "TVOF |C|", "product |C|", "same VO"});
  table.set_precision(2);
  std::size_t agree = 0;
  const std::size_t programs = runs.tvof_programs.size();
  for (std::size_t prog = 0; prog < programs; ++prog) {
    const core::MechanismResult& a = runs.tvof_programs[prog];
    const sim::Scenario s = runner.scenarios().make(kProgramTasks, prog);
    util::Xoshiro256 rng(s.tvof_seed);
    const core::MechanismResult b = tvof_product.run(
        core::FormationRequest{s.instance.assignment, s.trust, rng});
    const bool same = a.selected == b.selected;
    agree += same;
    table.add_row({static_cast<long long>(prog + 1), a.payoff_share,
                   b.payoff_share, static_cast<long long>(a.selected.size()),
                   static_cast<long long>(b.selected.size()),
                   std::string(same ? "yes" : "no")});
  }
  bench::emit(table, "fig4_program_payoffs.csv");
  std::printf("\nselections agree on %zu/%zu programs "
              "(paper: most programs).\n",
              agree, programs);
}

/// One program's iteration trace (Figs. 5-8). RVOF's trace also counts
/// the iterations whose average reputation fell.
void iteration_trace(const char* figure, std::size_t rep,
                     const core::MechanismResult& r, bool rvof) {
  const char program = rep == 0 ? 'A' : 'B';
  std::printf("\n--- %s: %s iterations, program %c (%zu tasks) ---\n", figure,
              rvof ? "RVOF" : "TVOF", program, kProgramTasks);
  util::Table table({"|C|", "feasible", "payoff share", "avg reputation",
                     "removed GSP"});
  table.set_precision(4);
  std::size_t reputation_drops = 0;
  double prev_rep = -1.0;
  for (const auto& it : r.journal) {
    if (prev_rep >= 0.0 && it.avg_global_reputation < prev_rep) {
      ++reputation_drops;
    }
    prev_rep = it.avg_global_reputation;
    std::string removed = "-";
    if (it.removed_gsp != SIZE_MAX) {
      removed = "G";
      removed += std::to_string(it.removed_gsp);
    }
    table.add_row({static_cast<long long>(it.coalition.size()),
                   std::string(it.feasible ? "yes" : "no"), it.payoff_share,
                   it.avg_global_reputation, removed});
  }
  std::string csv = rvof ? "fig78_rvof_program_" : "fig56_tvof_program_";
  csv += program;
  bench::emit(table, csv + ".csv");
  std::printf("final VO: |C|=%zu, payoff=%.2f, avg reputation=%.4f",
              r.selected.size(), r.payoff_share, r.avg_global_reputation);
  if (rvof) {
    std::printf("; reputation dropped in %zu iterations "
                "(paper: fluctuates, does not monotonically rise)",
                reputation_drops);
  }
  std::printf("\n");
}

void figs5to8(const Runs& runs) {
  const std::size_t programs = std::min<std::size_t>(2, runs.tvof_programs.size());
  for (std::size_t rep = 0; rep < programs; ++rep) {
    iteration_trace(rep == 0 ? "Fig. 5" : "Fig. 6", rep,
                    runs.tvof_programs[rep], false);
  }
  for (std::size_t rep = 0; rep < programs; ++rep) {
    iteration_trace(rep == 0 ? "Fig. 7" : "Fig. 8", rep,
                    runs.rvof_programs[rep], true);
  }
}

void fig9(const sim::SweepResult& sweep, const Runs& runs) {
  heading("Fig. 9", "mechanism execution time vs number of tasks");
  util::Table table({"tasks", "TVOF seconds", "RVOF seconds", "TVOF stddev",
                     "RVOF stddev", "TVOF nodes", "RVOF nodes",
                     "TVOF budget-hit share", "RVOF budget-hit share",
                     "TVOF no-incumbent node share",
                     "RVOF no-incumbent node share",
                     "TVOF terminal proven infeasible",
                     "RVOF terminal proven infeasible"});
  table.set_precision(4);
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const sim::SweepPoint& p = sweep.points[i];
    table.add_row({static_cast<long long>(p.num_tasks),
                   p.tvof.exec_seconds.mean(), p.rvof.exec_seconds.mean(),
                   p.tvof.exec_seconds.stddev(), p.rvof.exec_seconds.stddev(),
                   runs.tvof_work[i].nodes, runs.rvof_work[i].nodes,
                   runs.tvof_work[i].hit_share(),
                   runs.rvof_work[i].hit_share(),
                   runs.tvof_work[i].no_incumbent_share(),
                   runs.rvof_work[i].no_incumbent_share(),
                   runs.tvof_work[i].terminal_infeasible_share(),
                   runs.rvof_work[i].terminal_infeasible_share()});
  }
  bench::emit(table, "fig9_exec_time.csv");
  const double first = sweep.points.front().tvof.exec_seconds.mean();
  const double last = sweep.points.back().tvof.exec_seconds.mean();
  if (first > 0.0) {
    std::printf("\nTVOF time grows %.1fx from n=%zu to n=%zu "
                "(paper: increasing, dominated by the mapping).\n",
                last / first, sweep.points.front().num_tasks,
                sweep.points.back().num_tasks);
  }
}

}  // namespace

int main() {
  const bench::Session session("Figs. 1-9",
                               "the paper's evaluation protocol, one sweep");

  sim::ExperimentConfig cfg = bench::paper_config();
  cfg.parallel = false;  // Fig. 9 times each run alone
  const sim::ExperimentRunner runner(cfg);

  Runs runs;
  std::size_t done = 0;
  const std::size_t total = cfg.task_sizes.size() * cfg.repetitions * 2;
  const sim::SweepResult sweep = runner.run_sweep(
      [&](std::size_t n, std::size_t rep, const std::string& mech,
          const core::MechanismResult& r) {
        ++done;
        std::fprintf(stderr, "  [%3zu/%zu] n=%zu rep=%zu %s: |C|=%zu %.3fs\n",
                     done, total, n, rep, mech.c_str(), r.selected.size(),
                     r.elapsed_seconds);
        const bool tvof = mech == "TVOF";
        if (tvof && rep == 0) {  // each size opens with repetition 0's TVOF
          runs.tvof_work.emplace_back();
          runs.rvof_work.emplace_back();
        }
        (tvof ? runs.tvof_work : runs.rvof_work).back().add(r);
        auto& programs = tvof ? runs.tvof_programs : runs.rvof_programs;
        if (n == kProgramTasks && programs.size() < cfg.repetitions) {
          programs.push_back(r);
        }
      });

  fig1(sweep);
  fig2(sweep);
  fig3(sweep);
  if (runs.tvof_programs.empty()) {
    std::printf("\nFigs. 4-8: skipped; they plot the n = %zu programs and "
                "the sweep ran no such size.\n",
                kProgramTasks);
  } else {
    fig4(runner, runs);
    figs5to8(runs);
  }
  fig9(sweep, runs);
  return 0;
}
