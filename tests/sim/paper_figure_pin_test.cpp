/// Golden pins of the paper's evaluation protocol (Section IV): TVOF and
/// RVOF on n = 256..8192 tasks, ten repetitions each, root seed 20120910
/// and a 20 000-node budget, i.e. bench::paper_config() without its
/// environment overrides. bench_paper_figures prints Figs. 1-9 from
/// exactly these runs, so a change that moves any figure shows here.
///
/// Rows:
///  - one per (size, mechanism): the failure count, and an FNV-1a over
///    each repetition's success flag, selected VO, cost, payoff-share and
///    average-global-reputation bits, total B&B nodes and every journal
///    entry's solve status;
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
  std::uint64_t hash = 0;

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  std::ostringstream os;
  os << "{\"" << r.label << "\", " << r.count << "U, 0x" << std::hex << r.hash
     << "ULL},";
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
    pin::Fnv1a hash;
  };
  std::vector<Cell> cells;  // in sweep order
  const auto cell_of = [&](const std::string& label) -> Cell& {
    for (Cell& c : cells) {
      if (c.label == label) return c;
    }
    return cells.emplace_back(Cell{label, 0, {}});
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
    cell.hash.add(r.success)
        .add(r.selected.bits())
        .add(r.cost)
        .add(r.payoff_share)
        .add(r.avg_global_reputation)
        .add(r.stats.nodes);
    for (const core::IterationRecord& it : r.journal) {
      cell.hash.add(static_cast<std::uint64_t>(it.stats.status));
    }
    if (n == 256 && rep < 2) {
      const char* fig = mech == "TVOF" ? (rep == 0 ? "fig5" : "fig6")
                                       : (rep == 0 ? "fig7" : "fig8");
      journals.push_back(journal_row(std::string(fig) + " " + mech, r));
    }
    if (n == 256 && mech == "TVOF") tvof_picks.push_back(r.selected);
  });

  std::vector<Row> out;
  for (const Cell& c : cells) out.push_back({c.label, c.failures, c.hash.value()});
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
    {"n256 TVOF", 0U, 0xd825e35733b8b958ULL},
    {"n256 RVOF", 0U, 0x80013d1637a2d0eeULL},
    {"n512 TVOF", 0U, 0xfab477a9e30f72abULL},
    {"n512 RVOF", 0U, 0x8af5bbc8c2b1782bULL},
    {"n1024 TVOF", 0U, 0xb6ff35966111baeULL},
    {"n1024 RVOF", 0U, 0x84bfd060c2fb0623ULL},
    {"n2048 TVOF", 0U, 0xde956f7fbfd8b264ULL},
    {"n2048 RVOF", 0U, 0x56e670b528e02f9dULL},
    {"n4096 TVOF", 0U, 0xcfd6c1cf6bcac53dULL},
    {"n4096 RVOF", 0U, 0xa7a60aaa109b38deULL},
    {"n8192 TVOF", 0U, 0x93d05d8c5e4cdc4cULL},
    {"n8192 RVOF", 0U, 0x94d428b7f4b86612ULL},
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
