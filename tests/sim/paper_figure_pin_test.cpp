/// Golden pins of the paper's evaluation protocol (Section IV): TVOF and
/// RVOF on n = 256..8192 tasks, ten repetitions each, root seed 20120910
/// and a 20 000-node budget, i.e. bench::paper_config() without its
/// environment overrides. bench_paper_figures prints Figs. 1-9 from
/// exactly these runs, so a change that moves any figure shows here.
///
/// Rows:
///  - one per (size, mechanism): the failure count and two FNV-1a hashes
///    over its repetitions. The outcome hash folds each repetition's
///    success flag, selected VO, cost, payoff-share and
///    average-global-reputation bits, and each journal entry's coalition,
///    feasible flag, cost bits and removed GSP. The work hash folds each
///    repetition's total B&B nodes and every journal entry's solve
///    status. A change to how hard the solver works, or to what it can
///    prove, moves the work hash alone;
///  - one per Figs. 5-8 journal (n = 256, repetitions 0 and 1): the entry
///    count, and an FNV-1a over each entry's |C|, feasible flag,
///    payoff-share and reputation bits and removed GSP;
///  - one for Fig. 4: how many of the ten n = 256 programs' max(payoff x
///    reputation) picks equal TVOF's, and an FNV-1a over each pick's VO
///    and payoff-share bits.
/// Times are not pinned.
///
/// A mismatch prints the whole actual table in the table's own syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/runner.hpp"
#include "tests/pin_hash.hpp"

namespace svo::sim {
namespace {

using pin::bits;

struct Row {
  std::string label;
  std::uint64_t count = 0;  ///< failures, journal entries or agreeing picks
  std::uint64_t hash = 0;   ///< outcomes
  std::uint64_t work = 0;   ///< nodes and statuses; 0 on non-cell rows

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  std::ostringstream os;
  os << "{\"" << r.label << "\", " << r.count << "U, 0x" << std::hex << r.hash
     << "ULL";
  if (r.work != 0) os << ", 0x" << r.work << "ULL";
  os << "},";
  return os.str();
}

/// The paper's protocol, run serially as the figure harness runs it.
ExperimentConfig paper_protocol() {
  ExperimentConfig cfg;
  cfg.solver.max_nodes = 20'000;
  cfg.parallel = false;
  return cfg;
}

Row journal_row(const std::string& label, const core::MechanismResult& r) {
  pin::Fnv1a h;
  for (const core::IterationRecord& it : r.journal) {
    h.add(it.coalition.size())
        .add(it.feasible)
        .add(it.payoff_share)
        .add(it.avg_global_reputation)
        .add(it.removed_gsp);
  }
  return {label, r.journal.size(), h.value()};
}

std::vector<Row> figure_table() {
  const ExperimentRunner runner(paper_protocol());
  struct Cell {
    std::string label;
    std::uint64_t failures = 0;
    pin::Fnv1a outcome;
    pin::Fnv1a work;
  };
  std::vector<Cell> cells;  // in sweep order
  const auto cell_of = [&](const std::string& label) -> Cell& {
    for (Cell& c : cells) {
      if (c.label == label) return c;
    }
    return cells.emplace_back(Cell{label, 0, {}, {}});
  };
  std::vector<Row> journals;
  std::vector<game::Coalition> tvof_picks;  // n = 256, per repetition
  (void)runner.run_sweep([&](std::size_t n, std::size_t rep,
                             const std::string& mech,
                             const core::MechanismResult& r) {
    std::string label = "n";
    label += std::to_string(n) + " " + mech;
    Cell& cell = cell_of(label);
    cell.failures += r.success ? 0 : 1;
    cell.outcome.add(r.success)
        .add(r.selected.bits())
        .add(r.cost)
        .add(r.payoff_share)
        .add(r.avg_global_reputation);
    cell.work.add(r.stats.nodes);
    for (const core::IterationRecord& it : r.journal) {
      cell.outcome.add(it.coalition.bits())
          .add(it.feasible)
          .add(it.cost)
          .add(it.removed_gsp);
      cell.work.add(static_cast<std::uint64_t>(it.stats.status));
    }
    if (n == 256 && rep < 2) {
      const char* fig = mech == "TVOF" ? (rep == 0 ? "fig5" : "fig6")
                                       : (rep == 0 ? "fig7" : "fig8");
      journals.push_back(journal_row(std::string(fig) + " " + mech, r));
    }
    if (n == 256 && mech == "TVOF") tvof_picks.push_back(r.selected);
  });

  std::vector<Row> out;
  for (const Cell& c : cells) {
    out.push_back({c.label, c.failures, c.outcome.value(), c.work.value()});
  }
  out.insert(out.end(), journals.begin(), journals.end());

  const ExperimentConfig& cfg = runner.config();
  const ip::BnbAssignmentSolver solver(cfg.solver);
  core::MechanismConfig product_rule = cfg.mechanism;
  product_rule.selection = core::SelectionRule::MaxPayoffReputationProduct;
  const core::TvofMechanism tvof_product(solver, product_rule);
  Row fig4{"fig4 product picks", 0, 0};
  pin::Fnv1a picks;
  for (std::size_t prog = 0; prog < tvof_picks.size(); ++prog) {
    const Scenario s = runner.scenarios().make(256, prog);
    util::Xoshiro256 rng(s.tvof_seed);
    const core::MechanismResult r = tvof_product.run(
        core::FormationRequest{s.instance.assignment, s.trust, rng});
    fig4.count += r.selected == tvof_picks[prog] ? 1 : 0;
    picks.add(r.selected.bits()).add(r.payoff_share);
  }
  fig4.hash = picks.value();
  out.push_back(fig4);
  return out;
}

// clang-format off
const std::vector<Row> kFigurePins = {
    {"n256 TVOF", 0U, 0xcf4691c6c9d7132aULL, 0x2ea641bb166c07d8ULL},
    {"n256 RVOF", 0U, 0x717ca799bca9d806ULL, 0x99d4602a00002eedULL},
    {"n512 TVOF", 0U, 0x46911c9311fb5e26ULL, 0xbba6d6e4441c0061ULL},
    {"n512 RVOF", 0U, 0xd08b9666544849fdULL, 0x885b8ee603f566fdULL},
    {"n1024 TVOF", 0U, 0x5ff57a4be496c4b8ULL, 0x2f3942013f1026c0ULL},
    {"n1024 RVOF", 0U, 0xf4b7ae26e19daa4eULL, 0x4d39a3cdd3e258eaULL},
    {"n2048 TVOF", 0U, 0x6532cc4da9efc2dbULL, 0xdbb59f7f9c04092dULL},
    {"n2048 RVOF", 0U, 0xddf0755ef2098f4ULL, 0xbc0cf23e3436c6dULL},
    {"n4096 TVOF", 0U, 0xda81c319388f3e82ULL, 0xec739b3c234d2aadULL},
    {"n4096 RVOF", 0U, 0x7841399f3e4872e3ULL, 0xa4b6e3013ba97573ULL},
    {"n8192 TVOF", 0U, 0x1218e6db6365a9acULL, 0xe32161aef02c6704ULL},
    {"n8192 RVOF", 0U, 0xc208723bff48c501ULL, 0x3233a2534401cf8bULL},
    {"fig5 TVOF", 7U, 0xfbcd96ecb3e73168ULL},
    {"fig7 RVOF", 7U, 0x66e7d17a2a1c677cULL},
    {"fig6 TVOF", 9U, 0x9388b16133ccd0e3ULL},
    {"fig8 RVOF", 9U, 0x368db7bde9e54669ULL},
    {"fig4 product picks", 9U, 0x91400953ab12d8e0ULL},
};
// clang-format on

TEST(PaperFigurePinTest, EveryFigureSeriesIsPinned) {
  const ExperimentConfig cfg = paper_protocol();
  EXPECT_EQ(cfg.seed, 20120910u);
  EXPECT_EQ(cfg.repetitions, 10u);
  EXPECT_EQ(cfg.task_sizes,
            (std::vector<std::size_t>{256, 512, 1024, 2048, 4096, 8192}));

  const std::vector<Row> got = figure_table();
  std::ostringstream actual;
  for (const Row& r : got) actual << format(r) << "\n";
  ASSERT_EQ(got.size(), kFigurePins.size()) << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kFigurePins[i])
        << "want " << format(kFigurePins[i]) << "\n got  " << format(got[i]);
  }
}

}  // namespace
}  // namespace svo::sim
