/// Golden pins of Algorithm 1's whole shrinking-coalition chain under
/// WarmStartPolicy::Incremental. SearchPinTest pins single solves, one
/// removal deep; this test pins every solve a mechanism run makes, so a
/// change to what the value function hands the solver from one
/// iteration to the next (incumbents, cost orders, kernels) cannot
/// silently change a later iteration. Per iteration it records the
/// removed GSP, the solve's status, node count, cost bits and an FNV-1a
/// hash of its mapping; per run, the selected VO and its cost and
/// mapping. The instances cover m in {5, 16} and n in {48, 1024}, cost
/// ties, +inf costs, a warm node cap and a candidate subset.
///
/// A mismatch prints the whole actual table in the table's own syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/mechanism.hpp"
#include "core/rvof.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "ip/warm_start.hpp"
#include "tests/pin_hash.hpp"
#include "trust/trust_graph.hpp"
#include "util/rng.hpp"

namespace svo::core {
namespace {

using pin::bits;
using pin::fnv1a;

/// Forwards to a B&B solver and keeps every solution, in call order. The
/// mechanism solves each coalition once (the value function memoizes),
/// so solution i belongs to journal entry i.
class RecordingSolver final : public ip::AssignmentSolver {
 public:
  explicit RecordingSolver(ip::BnbOptions opts) : inner_(opts) {}

  [[nodiscard]] ip::AssignmentSolution solve(
      const ip::AssignmentInstance& inst) const override {
    return keep(inner_.solve(inst));
  }
  [[nodiscard]] ip::AssignmentSolution solve(
      const ip::AssignmentInstance& inst,
      const ip::WarmStart& warm) const override {
    return keep(inner_.solve(inst, warm));
  }
  [[nodiscard]] ip::AssignmentSolution solve_from_kernel(
      const ip::AssignmentInstance& full, const std::vector<bool>& mask,
      const ip::WarmStart& warm) const override {
    return keep(inner_.solve_from_kernel(full, mask, warm));
  }
  [[nodiscard]] std::string name() const override { return "recording"; }

  mutable std::vector<ip::AssignmentSolution> solutions;

 private:
  ip::AssignmentSolution keep(ip::AssignmentSolution sol) const {
    solutions.push_back(sol);
    return sol;
  }

  ip::BnbAssignmentSolver inner_;
};

/// How a case's costs are drawn.
enum class Costs { Uniform, Ties, Infinite };

struct ChainCase {
  const char* label;
  std::size_t m;
  std::size_t n;
  Costs costs;
  std::size_t warm_max_nodes;
  std::uint64_t candidates;  ///< coalition bits; 0 = all m GSPs
};

/// Random instance whose deadline is 1.3 times the mean load of
/// `m / 2` GSPs, so the chain turns infeasible part-way down. Each GSP
/// has a price level, so tasks crowd onto the cheap GSPs, the deadline
/// binds and the searches branch. Ties draws integer costs in [1, 5].
/// Infinite sets +inf on GSP 1 for every even task and on GSP 3 for
/// every third, so some coalitions leave a task a single finite cost
/// (regret 0) or none (infeasible).
ip::AssignmentInstance chain_instance(const ChainCase& c,
                                      util::Xoshiro256& rng) {
  ip::AssignmentInstance inst;
  inst.cost = linalg::Matrix(c.m, c.n);
  inst.time = linalg::Matrix(c.m, c.n);
  double total_time = 0.0;
  for (std::size_t g = 0; g < c.m; ++g) {
    const double level = rng.uniform(0.5, 2.0);
    const std::size_t step = rng.index(2);
    for (std::size_t t = 0; t < c.n; ++t) {
      inst.cost(g, t) = c.costs == Costs::Ties
                            ? static_cast<double>(1 + step + rng.index(4))
                            : level * rng.uniform(1.0, 20.0);
      inst.time(g, t) = rng.uniform(0.5, 4.0);
      total_time += inst.time(g, t);
    }
  }
  if (c.costs == Costs::Infinite) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < c.n; t += 2) inst.cost(1, t) = kInf;
    for (std::size_t t = 0; t < c.n; t += 3) inst.cost(3, t) = kInf;
  }
  const double mean_load =
      total_time / static_cast<double>(c.m * (c.m / 2));
  inst.deadline = 1.3 * mean_load;
  inst.payment = 25.0 * static_cast<double>(c.n);
  return inst;
}

struct Row {
  std::string label;
  std::uint64_t removed = 0;  ///< removed GSP; selected VO bits on "vo" rows
  int status = 0;
  std::uint64_t nodes = 0;
  std::uint64_t cost = 0;     ///< bits of the solve's (or VO's) cost
  std::uint64_t mapping = 0;  ///< fnv1a of the solve's (or VO's) mapping

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  std::ostringstream os;
  os << "{\"" << r.label << "\", " << r.removed << "ULL, " << r.status << ", "
     << r.nodes << "U, 0x" << std::hex << r.cost << "ULL, 0x" << r.mapping
     << "ULL},";
  return os.str();
}

/// Every solve of every case under both mechanisms, labelled.
std::vector<Row> chain_table() {
  const std::vector<ChainCase> cases = {
      {"m5 n48 unif", 5, 48, Costs::Uniform, 0, 0},
      {"m16 n1024 unif", 16, 1024, Costs::Uniform, 0, 0},
      {"m16 n48 ties", 16, 48, Costs::Ties, 0, 0},
      {"m5 n1024 inf", 5, 1024, Costs::Infinite, 0, 0},
      {"m16 n1024 warmcap", 16, 1024, Costs::Uniform, 300, 0},
      {"m16 n48 subset", 16, 48, Costs::Uniform, 0, 0b1011'0110'1101'0011},
  };
  std::vector<Row> out;
  std::uint64_t seed = 3000;
  for (const ChainCase& c : cases) {
    util::Xoshiro256 rng(++seed);
    const ip::AssignmentInstance inst = chain_instance(c, rng);
    const trust::TrustGraph trust = trust::random_trust_graph(c.m, 0.4, rng);
    ip::BnbOptions opts;
    opts.max_nodes = 2'000;
    opts.warm_max_nodes = c.warm_max_nodes;
    const RecordingSolver solver(opts);
    const TvofMechanism tvof(solver);
    const RvofMechanism rvof(solver);
    for (const VoFormationMechanism* mech :
         {static_cast<const VoFormationMechanism*>(&tvof),
          static_cast<const VoFormationMechanism*>(&rvof)}) {
      solver.solutions.clear();
      util::Xoshiro256 mech_rng(seed * 7);
      const MechanismResult res = mech->run(
          FormationRequest{inst, trust, mech_rng, game::Coalition(c.candidates),
                           WarmStartPolicy::Incremental});
      const std::string label = std::string(c.label) + " " + mech->name();
      EXPECT_EQ(solver.solutions.size(), res.journal.size()) << label;
      for (std::size_t i = 0;
           i < res.journal.size() && i < solver.solutions.size(); ++i) {
        const ip::AssignmentSolution& sol = solver.solutions[i];
        out.push_back({label + " it" + std::to_string(i),
                       static_cast<std::uint64_t>(res.journal[i].removed_gsp),
                       static_cast<int>(sol.stats.status), sol.stats.nodes,
                       bits(sol.cost), fnv1a(sol.assignment)});
      }
      out.push_back({label + " vo", res.selected.bits(), res.success ? 1 : 0,
                     res.stats.nodes, bits(res.cost), fnv1a(res.mapping)});
    }
  }
  return out;
}

// clang-format off
const std::vector<Row> kChainPins = {
    {"m5 n48 unif TVOF it0", 4ULL, 0, 0U, 0x406a01d3de829f9cULL, 0xb5e3ec2acac38567ULL},
    {"m5 n48 unif TVOF it1", 3ULL, 0, 0U, 0x406bd491a218d4f5ULL, 0x54e661db56d365a7ULL},
    {"m5 n48 unif TVOF it2", 2ULL, 0, 47U, 0x40719b6f46baa99eULL, 0x3b20a0b6cd4ce926ULL},
    {"m5 n48 unif TVOF it3", 0ULL, 0, 297U, 0x40735a55a1e5f035ULL, 0x601e5888fc0d9bc4ULL},
    {"m5 n48 unif TVOF it4", 18446744073709551615ULL, 2, 0U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m5 n48 unif TVOF vo", 3ULL, 1, 344U, 0x40735a55a1e5f035ULL, 0x601e5888fc0d9bc4ULL},
    {"m5 n48 unif RVOF it0", 4ULL, 0, 0U, 0x406a01d3de829f9cULL, 0xb5e3ec2acac38567ULL},
    {"m5 n48 unif RVOF it1", 0ULL, 0, 0U, 0x406bd491a218d4f5ULL, 0x54e661db56d365a7ULL},
    {"m5 n48 unif RVOF it2", 3ULL, 0, 0U, 0x406ea7279334c212ULL, 0xd26c866542a54046ULL},
    {"m5 n48 unif RVOF it3", 1ULL, 0, 1503U, 0x407509013e8fe22bULL, 0xeee0dff553f3f764ULL},
    {"m5 n48 unif RVOF it4", 18446744073709551615ULL, 2, 0U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m5 n48 unif RVOF vo", 6ULL, 1, 1503U, 0x407509013e8fe22bULL, 0xb9ef922c4d6fbda6ULL},
    {"m16 n1024 unif TVOF it0", 2ULL, 1, 2000U, 0x40a2acc9095e8958ULL, 0x97cdbedf029c5dedULL},
    {"m16 n1024 unif TVOF it1", 9ULL, 1, 2000U, 0x40a2dfb48134bbfeULL, 0x6ecb3bb44b3fef4dULL},
    {"m16 n1024 unif TVOF it2", 6ULL, 1, 2000U, 0x40a34596b90abb77ULL, 0x119e56ffe23b000ULL},
    {"m16 n1024 unif TVOF it3", 8ULL, 1, 2000U, 0x40a3bb457decefabULL, 0x46a5bd770960de05ULL},
    {"m16 n1024 unif TVOF it4", 3ULL, 1, 2000U, 0x40a413eb32498d11ULL, 0x72510260fc890ea2ULL},
    {"m16 n1024 unif TVOF it5", 15ULL, 1, 2000U, 0x40a55592b8baaf55ULL, 0xfd6bef0750e1e60cULL},
    {"m16 n1024 unif TVOF it6", 11ULL, 1, 2000U, 0x40a6aeb78e4c166bULL, 0xb79ae94eb327a34eULL},
    {"m16 n1024 unif TVOF it7", 10ULL, 1, 2000U, 0x40a7bbd6dc06eb54ULL, 0x90a589bedbbc446bULL},
    {"m16 n1024 unif TVOF it8", 14ULL, 1, 2000U, 0x40aa3f686cdf923fULL, 0x41c187e497318da6ULL},
    {"m16 n1024 unif TVOF it9", 13ULL, 1, 2000U, 0x40ae38a170199d39ULL, 0x758cc2c1a508a8e4ULL},
    {"m16 n1024 unif TVOF it10", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n1024 unif TVOF vo", 12467ULL, 1, 22000U, 0x40ae38a170199d39ULL, 0x6ee75a36073469c4ULL},
    {"m16 n1024 unif RVOF it0", 6ULL, 1, 2000U, 0x40a2acc9095e8958ULL, 0x97cdbedf029c5dedULL},
    {"m16 n1024 unif RVOF it1", 7ULL, 1, 2000U, 0x40a30cf5b226c354ULL, 0x9645bec5e873f2c4ULL},
    {"m16 n1024 unif RVOF it2", 0ULL, 1, 2000U, 0x40a3a4f21084809aULL, 0x3818a29387a8db04ULL},
    {"m16 n1024 unif RVOF it3", 5ULL, 1, 2000U, 0x40a40bd6d3d55f06ULL, 0xff2b7d49edc8812aULL},
    {"m16 n1024 unif RVOF it4", 3ULL, 0, 0U, 0x40a7387a7d18e323ULL, 0x287c2099dad539acULL},
    {"m16 n1024 unif RVOF it5", 4ULL, 0, 1004U, 0x40a92778f415c295ULL, 0xea2ff604170ee500ULL},
    {"m16 n1024 unif RVOF it6", 9ULL, 1, 2000U, 0x40a9f815f8d42c17ULL, 0x3148b184f6c1d26dULL},
    {"m16 n1024 unif RVOF it7", 15ULL, 1, 2000U, 0x40ab32b6cd8e4b63ULL, 0x369b106593a3c0a5ULL},
    {"m16 n1024 unif RVOF it8", 10ULL, 1, 2000U, 0x40ad939320e88865ULL, 0xffa623c67ef3c307ULL},
    {"m16 n1024 unif RVOF it9", 11ULL, 1, 2000U, 0x40b16486efeaeb6eULL, 0x7f5f0603ce0d83a2ULL},
    {"m16 n1024 unif RVOF it10", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n1024 unif RVOF vo", 30982ULL, 1, 19004U, 0x40b16486efeaeb6eULL, 0x9153bc9ba30c5ae9ULL},
    {"m16 n48 ties TVOF it0", 12ULL, 1, 2000U, 0x404c000000000000ULL, 0xd04b4f5bfdbc19eeULL},
    {"m16 n48 ties TVOF it1", 8ULL, 1, 2000U, 0x404c000000000000ULL, 0xcbf73a02963f70ecULL},
    {"m16 n48 ties TVOF it2", 3ULL, 1, 2000U, 0x404c000000000000ULL, 0x6287e2acad868640ULL},
    {"m16 n48 ties TVOF it3", 0ULL, 1, 2000U, 0x404c000000000000ULL, 0x293dfdff593f08aULL},
    {"m16 n48 ties TVOF it4", 10ULL, 1, 2000U, 0x404c000000000000ULL, 0x5b61c5e46bde7a07ULL},
    {"m16 n48 ties TVOF it5", 9ULL, 1, 2000U, 0x404d000000000000ULL, 0xf4a7e6f7bb41d0dULL},
    {"m16 n48 ties TVOF it6", 4ULL, 1, 2000U, 0x404d800000000000ULL, 0x567bce4b9af17804ULL},
    {"m16 n48 ties TVOF it7", 5ULL, 0, 0U, 0x404e800000000000ULL, 0x658adb0eb533524dULL},
    {"m16 n48 ties TVOF it8", 2ULL, 0, 1168U, 0x404f800000000000ULL, 0x19b59dfe3c935804ULL},
    {"m16 n48 ties TVOF it9", 14ULL, 1, 2000U, 0x4052800000000000ULL, 0x9e66353a67452ba6ULL},
    {"m16 n48 ties TVOF it10", 7ULL, 1, 2000U, 0x4056800000000000ULL, 0xc297fa826e5777a0ULL},
    {"m16 n48 ties TVOF it11", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n48 ties TVOF vo", 43202ULL, 1, 21168U, 0x4056800000000000ULL, 0xcc181fcc217c0ac0ULL},
    {"m16 n48 ties RVOF it0", 12ULL, 1, 2000U, 0x404c000000000000ULL, 0xd04b4f5bfdbc19eeULL},
    {"m16 n48 ties RVOF it1", 1ULL, 1, 2000U, 0x404c000000000000ULL, 0xcbf73a02963f70ecULL},
    {"m16 n48 ties RVOF it2", 7ULL, 1, 2000U, 0x404c000000000000ULL, 0x23c7ec25a4537fa7ULL},
    {"m16 n48 ties RVOF it3", 9ULL, 1, 2000U, 0x404c000000000000ULL, 0x7ce29d9871561f6dULL},
    {"m16 n48 ties RVOF it4", 11ULL, 0, 0U, 0x404c000000000000ULL, 0xd0ee93b870a82002ULL},
    {"m16 n48 ties RVOF it5", 10ULL, 0, 0U, 0x404c800000000000ULL, 0xf09215616e14128ULL},
    {"m16 n48 ties RVOF it6", 14ULL, 0, 0U, 0x404f000000000000ULL, 0x39b95e50db74efc2ULL},
    {"m16 n48 ties RVOF it7", 2ULL, 0, 0U, 0x4050c00000000000ULL, 0xba1f1bdff661a123ULL},
    {"m16 n48 ties RVOF it8", 5ULL, 1, 2000U, 0x4052c00000000000ULL, 0x5619f1b2af164e21ULL},
    {"m16 n48 ties RVOF it9", 13ULL, 1, 2000U, 0x4055800000000000ULL, 0x8c4b6226881c99e1ULL},
    {"m16 n48 ties RVOF it10", 4ULL, 1, 2000U, 0x4057000000000000ULL, 0x31a133ed9d5d4c45ULL},
    {"m16 n48 ties RVOF it11", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n48 ties RVOF vo", 33113ULL, 1, 16000U, 0x4057000000000000ULL, 0xdeb974a810d095a1ULL},
    {"m5 n1024 inf TVOF it0", 0ULL, 0, 0U, 0x40b4fcd9f1b921e9ULL, 0x993e5d3c7beb6e81ULL},
    {"m5 n1024 inf TVOF it1", 1ULL, 0, 0U, 0x40b6eb06612368a5ULL, 0x7e877ce1e601e325ULL},
    {"m5 n1024 inf TVOF it2", 2ULL, 0, 0U, 0x40b8ff13b04eaaefULL, 0x71e954bca677a646ULL},
    {"m5 n1024 inf TVOF it3", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m5 n1024 inf TVOF vo", 28ULL, 1, 2000U, 0x40b8ff13b04eaaefULL, 0xe957c5330d4c1cc2ULL},
    {"m5 n1024 inf RVOF it0", 1ULL, 0, 0U, 0x40b4fcd9f1b921e9ULL, 0x993e5d3c7beb6e81ULL},
    {"m5 n1024 inf RVOF it1", 2ULL, 0, 0U, 0x40b6b36c9f610ca7ULL, 0xb77a426818cfb3c5ULL},
    {"m5 n1024 inf RVOF it2", 3ULL, 1, 2000U, 0x40bac69763524d3bULL, 0x526768a0dbc563a4ULL},
    {"m5 n1024 inf RVOF it3", 4ULL, 1, 2000U, 0x40bd736e758dac83ULL, 0xdc3ebe151a736445ULL},
    {"m5 n1024 inf RVOF it4", 18446744073709551615ULL, 2, 0U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m5 n1024 inf RVOF vo", 17ULL, 1, 4000U, 0x40bd736e758dac83ULL, 0x4387ec5c30cfa7a5ULL},
    {"m16 n1024 warmcap TVOF it0", 7ULL, 0, 0U, 0x40a8064bef829ed2ULL, 0xf74398375b71ebcaULL},
    {"m16 n1024 warmcap TVOF it1", 9ULL, 0, 0U, 0x40a8e0e8c2f953c7ULL, 0x8c70533cfe8057a9ULL},
    {"m16 n1024 warmcap TVOF it2", 1ULL, 0, 0U, 0x40a997bca7e1ef92ULL, 0x1350b29f96915526ULL},
    {"m16 n1024 warmcap TVOF it3", 0ULL, 0, 0U, 0x40ab402865a8e5f8ULL, 0x6dad0b9fafd7142fULL},
    {"m16 n1024 warmcap TVOF it4", 15ULL, 0, 0U, 0x40acec4ba4e0212bULL, 0x5f9666f8ee6db4a3ULL},
    {"m16 n1024 warmcap TVOF it5", 5ULL, 0, 0U, 0x40adde59b8ea4de8ULL, 0x93b8671ee47311c7ULL},
    {"m16 n1024 warmcap TVOF it6", 3ULL, 1, 300U, 0x40ae8eacd78843b8ULL, 0x4f3a6d3b7b849488ULL},
    {"m16 n1024 warmcap TVOF it7", 13ULL, 1, 300U, 0x40afb647edaf0817ULL, 0x31f1e267509d1aa5ULL},
    {"m16 n1024 warmcap TVOF it8", 8ULL, 0, 0U, 0x40b1683084ff214eULL, 0xad47ba0929ca2d00ULL},
    {"m16 n1024 warmcap TVOF it9", 2ULL, 1, 300U, 0x40b31a959d35afccULL, 0x5bb9cf9a3449b021ULL},
    {"m16 n1024 warmcap TVOF it10", 12ULL, 1, 300U, 0x40b5e42a7746468cULL, 0x2f1c4ad2ebbc5b62ULL},
    {"m16 n1024 warmcap TVOF it11", 18446744073709551615ULL, 3, 300U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n1024 warmcap TVOF vo", 23632ULL, 1, 1500U, 0x40b5e42a7746468cULL, 0x4ca89bec55ccf7c1ULL},
    {"m16 n1024 warmcap RVOF it0", 7ULL, 0, 0U, 0x40a8064bef829ed2ULL, 0xf74398375b71ebcaULL},
    {"m16 n1024 warmcap RVOF it1", 4ULL, 0, 0U, 0x40a8e0e8c2f953c7ULL, 0x8c70533cfe8057a9ULL},
    {"m16 n1024 warmcap RVOF it2", 13ULL, 0, 0U, 0x40a978518d7a5a6bULL, 0xf23b6836e971e9a9ULL},
    {"m16 n1024 warmcap RVOF it3", 12ULL, 0, 0U, 0x40ab667494de44d5ULL, 0xf3a00c1db2e4fc0bULL},
    {"m16 n1024 warmcap RVOF it4", 6ULL, 0, 0U, 0x40ac48b87dfbae18ULL, 0x2bfc1fbfb856b36cULL},
    {"m16 n1024 warmcap RVOF it5", 9ULL, 0, 0U, 0x40ad9f3d98fc8913ULL, 0xf73976ca7e3cd328ULL},
    {"m16 n1024 warmcap RVOF it6", 2ULL, 0, 0U, 0x40aec2d0f8d90a92ULL, 0x913d353ecd928660ULL},
    {"m16 n1024 warmcap RVOF it7", 1ULL, 1, 300U, 0x40b0806240c620f7ULL, 0x4361c56344c583a6ULL},
    {"m16 n1024 warmcap RVOF it8", 5ULL, 0, 0U, 0x40b247a1799a49cbULL, 0xb9b7b10392805083ULL},
    {"m16 n1024 warmcap RVOF it9", 11ULL, 1, 300U, 0x40b3301ff2f78657ULL, 0x986b1f57aa906bc2ULL},
    {"m16 n1024 warmcap RVOF it10", 18446744073709551615ULL, 3, 300U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n1024 warmcap RVOF vo", 52489ULL, 1, 900U, 0x40b3301ff2f78657ULL, 0x5e217640bfa4906eULL},
    {"m16 n48 subset TVOF it0", 15ULL, 0, 0U, 0x406412040d85b6d9ULL, 0x618399b5873c074cULL},
    {"m16 n48 subset TVOF it1", 6ULL, 0, 49U, 0x40653e2b47b95755ULL, 0xcfee83ce623d8567ULL},
    {"m16 n48 subset TVOF it2", 10ULL, 0, 50U, 0x40674a505b22861dULL, 0xd1e402e37b858407ULL},
    {"m16 n48 subset TVOF it3", 7ULL, 0, 811U, 0x4068d3c5e4860dd9ULL, 0x6733fb59e9dbdf23ULL},
    {"m16 n48 subset TVOF it4", 13ULL, 1, 2000U, 0x406b76464f9408dbULL, 0xe47b671dabceaf43ULL},
    {"m16 n48 subset TVOF it5", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n48 subset TVOF vo", 12819ULL, 1, 4910U, 0x406b76464f9408dbULL, 0x49544deb43360ecdULL},
    {"m16 n48 subset RVOF it0", 0ULL, 0, 0U, 0x406412040d85b6d9ULL, 0x618399b5873c074cULL},
    {"m16 n48 subset RVOF it1", 13ULL, 0, 40U, 0x40654d34a4a8c1c2ULL, 0xdae4fa70aa4f78bULL},
    {"m16 n48 subset RVOF it2", 10ULL, 0, 74U, 0x4066c52965e02204ULL, 0xa86143959f216d61ULL},
    {"m16 n48 subset RVOF it3", 6ULL, 0, 172U, 0x40684f35404d9575ULL, 0x492bf2112d651a23ULL},
    {"m16 n48 subset RVOF it4", 9ULL, 0, 827U, 0x4069a2e6ba7b871aULL, 0x405abe37dc8cfba7ULL},
    {"m16 n48 subset RVOF it5", 18446744073709551615ULL, 3, 2000U, 0x0ULL, 0xcbf29ce484222325ULL},
    {"m16 n48 subset RVOF vo", 37522ULL, 1, 3113U, 0x4069a2e6ba7b871aULL, 0x9dfd30e88cd79f83ULL},
};
// clang-format on

TEST(MechanismChainPinTest, EverySolveOfTheChainIsPinned) {
  const std::vector<Row> got = chain_table();
  std::ostringstream actual;
  for (const Row& r : got) actual << format(r) << "\n";
  ASSERT_EQ(got.size(), kChainPins.size()) << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kChainPins[i])
        << "want " << format(kChainPins[i]) << "\n got  " << format(got[i]);
  }
}

}  // namespace
}  // namespace svo::core
