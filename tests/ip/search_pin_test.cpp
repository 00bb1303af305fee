/// Golden pins of the assignment search. The B&B's node sequence, the
/// greedy construction and the local-search polish are deterministic
/// functions of the instance; these tests record their outputs (node
/// counts, statuses, cost bits and FNV-1a hashes of the assignments) so a
/// change to how the solvers lay out or walk their data cannot silently
/// change what they compute. Heavy cost ties (integer costs in [1, 4])
/// are included on purpose: tie-breaks are where a reordered scan drifts.
///
/// A mismatch prints the whole actual row in the table's own syntax.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
#include "ip/local_search.hpp"
#include "ip/warm_start.hpp"
#include "tests/pin_hash.hpp"
#include "util/rng.hpp"

namespace svo::ip {
namespace {

using pin::bits;
using pin::fnv1a;

/// Random instance whose deadline binds: it is `deadline_factor` times
/// the mean load of `capacity_gsps` GSPs, so the capacity-blind root
/// bound is rarely attainable and the search has to explore. `ties`
/// draws integer costs and times in [1, 4], so most GSPs tie with
/// another on cost and greedy's slack tie-break sees ties too.
AssignmentInstance pin_instance(std::size_t k, std::size_t n,
                                std::size_t capacity_gsps,
                                double deadline_factor, util::Xoshiro256& rng,
                                bool ties) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(k, n);
  inst.time = linalg::Matrix(k, n);
  double total_time = 0.0;
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      inst.cost(g, t) = ties ? static_cast<double>(1 + rng.index(4))
                             : rng.uniform(1.0, 20.0);
      inst.time(g, t) = ties ? static_cast<double>(1 + rng.index(4))
                             : rng.uniform(0.5, 4.0);
      total_time += inst.time(g, t);
    }
  }
  const double mean_load =
      total_time / static_cast<double>(k * capacity_gsps);
  inst.deadline = deadline_factor * mean_load;
  inst.payment = 25.0 * static_cast<double>(n);
  return inst;
}

/// Raise a tight instance's deadline in 5 % steps until greedy
/// construction finds a seed, so the search starts from an incumbent and
/// spends its budget improving it (as at paper scale). Gives up after
/// ten steps, which leaves coverage-infeasible instances (k > n) alone.
void loosen_until_greedy_seeds(AssignmentInstance& inst) {
  for (int step = 0; step < 10; ++step) {
    if (!greedy_construct(inst, GreedyOptions::Order::RegretDescending)
             .empty() ||
        !greedy_construct(inst, GreedyOptions::Order::TimeDescending)
             .empty()) {
      return;
    }
    inst.deadline *= 1.05;
  }
}

/// One solve outcome.
struct SolvePin {
  std::uint64_t nodes = 0;
  int status = 0;
  std::uint64_t cost = 0;         ///< bits of the reported cost
  std::uint64_t lower_bound = 0;  ///< bits of the reported lower bound
  std::uint64_t assignment = 0;   ///< fnv1a of the assignment

  bool operator==(const SolvePin&) const = default;
};

SolvePin pin_of(const AssignmentSolution& sol) {
  return {sol.stats.nodes, static_cast<int>(sol.stats.status), bits(sol.cost),
          bits(sol.lower_bound), fnv1a(sol.assignment)};
}

std::string row(const std::string& label, const SolvePin& p) {
  std::ostringstream os;
  os << "{\"" << label << "\", " << p.nodes << "U, " << p.status << ", 0x"
     << std::hex << p.cost << "ULL, 0x" << p.lower_bound << "ULL, 0x"
     << p.assignment << "ULL},";
  return os.str();
}

struct Expected {
  const char* label;
  std::uint64_t nodes;
  int status;
  std::uint64_t cost;
  std::uint64_t lower_bound;
  std::uint64_t assignment;
};

/// Every B&B solve of the pin grid, labelled. For each (family, k, n,
/// tightness) a (k+1)-GSP parent is drawn and one seeded row removed;
/// the k-GSP child is then solved cold, warm (repaired parent incumbent
/// plus the kernel derived from the parent's) and bounds-only (derived
/// kernel alone).
std::vector<std::pair<std::string, SolvePin>> bnb_grid() {
  BnbOptions opts;
  opts.max_nodes = 5'000;
  opts.warm_max_nodes = 2'000;
  const BnbAssignmentSolver solver(opts);
  std::vector<std::pair<std::string, SolvePin>> out;
  std::uint64_t seed = 1000;
  for (const bool ties : {false, true}) {
    for (const std::size_t k : {2, 5, 16}) {
      for (const std::size_t n : {12, 300, 2048}) {
        for (const bool tight : {false, true}) {
          util::Xoshiro256 rng(++seed);
          AssignmentInstance parent =
              pin_instance(k + 1, n, k, tight ? 0.8 : 1.1, rng, ties);
          const std::size_t removed = rng.index(k + 1);
          std::vector<bool> keep(k + 1, true);
          keep[removed] = false;
          std::vector<std::size_t> rows;
          AssignmentInstance child = parent.restrict_to(keep, &rows);
          if (tight) {
            loosen_until_greedy_seeds(child);
            parent.deadline = child.deadline;
          }

          std::ostringstream label;
          label << (ties ? "ties" : "unif") << " k" << k << " n" << n
                << (tight ? " tight" : " loose");
          const AssignmentSolution parent_sol = solver.solve(parent);
          out.emplace_back(label.str() + " parent", pin_of(parent_sol));
          out.emplace_back(label.str() + " cold", pin_of(solver.solve(child)));

          WarmStart bounds;
          bounds.kernel = std::make_shared<const SolveKernel>(
              SolveKernel(parent), removed);
          WarmStart warm = bounds;
          if (parent_sol.has_assignment()) {
            const RepairResult r = repair_for_removal(
                *bounds.kernel, rows, parent_sol.assignment, removed);
            if (r.ok) {
              warm.incumbent = r.assignment;
              warm.incumbent_cost = r.cost;
              warm.repair_moves = r.moves;
            }
          }
          out.emplace_back(label.str() + " warm",
                           pin_of(solver.solve(child, warm)));
          out.emplace_back(label.str() + " bounds",
                           pin_of(solver.solve(child, bounds)));
        }
      }
    }
  }
  return out;
}

/// greedy_construct (both orders) and local_search (sampled and, for the
/// smaller sizes, exhaustive swaps) on tie-heavy instances.
std::vector<std::pair<std::string, SolvePin>> heuristic_grid() {
  std::vector<std::pair<std::string, SolvePin>> out;
  std::uint64_t seed = 2000;
  for (const std::size_t k : {2, 5, 16}) {
    for (const std::size_t n : {12, 300, 2048}) {
      for (const bool tight : {false, true}) {
        util::Xoshiro256 rng(++seed);
        AssignmentInstance inst =
            pin_instance(k, n, k, tight ? 0.8 : 1.2, rng, /*ties=*/true);
        if (tight) loosen_until_greedy_seeds(inst);
        std::ostringstream label;
        label << "ties k" << k << " n" << n << (tight ? " tight" : " loose");
        for (const auto order : {GreedyOptions::Order::RegretDescending,
                                 GreedyOptions::Order::TimeDescending}) {
          const std::string name =
              label.str() + (order == GreedyOptions::Order::RegretDescending
                                 ? " regret"
                                 : " time");
          const Assignment seed_a = greedy_construct(inst, order);
          out.emplace_back(name + " greedy",
                           SolvePin{0, 0, 0, 0, fnv1a(seed_a)});
          if (seed_a.empty()) continue;
          Assignment sampled = seed_a;
          const double c = local_search(inst, sampled);
          out.emplace_back(name + " polish",
                           SolvePin{0, 0, bits(c), 0, fnv1a(sampled)});
          if (n > 300) continue;
          LocalSearchOptions exhaustive;
          exhaustive.swap_sample_per_task = 0;
          Assignment full = seed_a;
          const double e = local_search(inst, full, exhaustive);
          out.emplace_back(name + " exhaustive",
                           SolvePin{0, 0, bits(e), 0, fnv1a(full)});
        }
      }
    }
  }
  return out;
}

void expect_table(const std::vector<std::pair<std::string, SolvePin>>& got,
                  const std::vector<Expected>& want) {
  std::ostringstream actual;
  for (const auto& [label, pin] : got) actual << row(label, pin) << "\n";
  ASSERT_EQ(got.size(), want.size()) << "actual table:\n" << actual.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Expected& w = want[i];
    EXPECT_EQ(got[i].first, w.label);
    EXPECT_EQ(got[i].second, (SolvePin{w.nodes, w.status, w.cost,
                                       w.lower_bound, w.assignment}))
        << "want " << w.label << "\n got  " << row(got[i].first, got[i].second);
  }
}

// clang-format off
const std::vector<Expected> kBnbPins = {
    {"unif k2 n12 loose parent", 0U, 0, 0x4051a88c51e592dbULL, 0x4051a88c51e592dbULL, 0xa5e63c10628c66e6ULL},
    {"unif k2 n12 loose cold", 0U, 0, 0x40568f984ed6d390ULL, 0x40568f984ed6d390ULL, 0xe8ad44b63308c1e4ULL},
    {"unif k2 n12 loose warm", 0U, 0, 0x40568f984ed6d390ULL, 0x40568f984ed6d390ULL, 0xe8ad44b63308c1e4ULL},
    {"unif k2 n12 loose bounds", 0U, 0, 0x40568f984ed6d390ULL, 0x40568f984ed6d390ULL, 0xe8ad44b63308c1e4ULL},
    {"unif k2 n12 tight parent", 17U, 0, 0x4052c6ed2452190dULL, 0x4052c6ed2452190dULL, 0xe88017bd73d77c65ULL},
    {"unif k2 n12 tight cold", 10U, 0, 0x405657cef322de4eULL, 0x405657cef322de4eULL, 0xfae513e1c7b1c805ULL},
    {"unif k2 n12 tight warm", 10U, 0, 0x405657cef322de4eULL, 0x405657cef322de4eULL, 0xfae513e1c7b1c805ULL},
    {"unif k2 n12 tight bounds", 10U, 0, 0x405657cef322de4eULL, 0x405657cef322de4eULL, 0xfae513e1c7b1c805ULL},
    {"unif k2 n300 loose parent", 0U, 0, 0x409d939858ea90d0ULL, 0x409d939858ea90d0ULL, 0xf89c0aa9d394047ULL},
    {"unif k2 n300 loose cold", 5000U, 1, 0x40a2ba7bc26e8296ULL, 0x40a2b5538434a911ULL, 0xc3613960e7c43205ULL},
    {"unif k2 n300 loose warm", 2000U, 1, 0x40a2ba7bc26e8296ULL, 0x40a2b5538434a911ULL, 0xc3613960e7c43205ULL},
    {"unif k2 n300 loose bounds", 2000U, 1, 0x40a2ba7bc26e8296ULL, 0x40a2b5538434a911ULL, 0xc3613960e7c43205ULL},
    {"unif k2 n300 tight parent", 0U, 0, 0x409a2a0cd4b011d5ULL, 0x409a2a0cd4b011d5ULL, 0x860080d52d7b75e6ULL},
    {"unif k2 n300 tight cold", 407U, 0, 0x40a10963b130d14aULL, 0x40a10963b130d14aULL, 0x4296e57506584584ULL},
    {"unif k2 n300 tight warm", 407U, 0, 0x40a10963b130d14aULL, 0x40a10963b130d14aULL, 0x4296e57506584584ULL},
    {"unif k2 n300 tight bounds", 407U, 0, 0x40a10963b130d14aULL, 0x40a10963b130d14aULL, 0x4296e57506584584ULL},
    {"unif k2 n2048 loose parent", 0U, 0, 0x40c69e48818b99caULL, 0x40c69e48818b99caULL, 0xc94e384faae37625ULL},
    {"unif k2 n2048 loose cold", 0U, 0, 0x40cd731b8d24bba1ULL, 0x40cd731b8d24bba1ULL, 0xe15aa6cfb776f2c5ULL},
    {"unif k2 n2048 loose warm", 0U, 0, 0x40cd731b8d24bba1ULL, 0x40cd731b8d24bba1ULL, 0xe15aa6cfb776f2c5ULL},
    {"unif k2 n2048 loose bounds", 0U, 0, 0x40cd731b8d24bba1ULL, 0x40cd731b8d24bba1ULL, 0xe15aa6cfb776f2c5ULL},
    {"unif k2 n2048 tight parent", 0U, 0, 0x40c67d0ec59ef7c9ULL, 0x40c67d0ec59ef7c9ULL, 0xf22fc9b79906a726ULL},
    {"unif k2 n2048 tight cold", 2214U, 0, 0x40cd34b7e0280612ULL, 0x40cd34b7e0280612ULL, 0xe52daeb0993447a5ULL},
    {"unif k2 n2048 tight warm", 2000U, 1, 0x40cd34b7e0280612ULL, 0x40cd34b01833abacULL, 0xe52daeb0993447a5ULL},
    {"unif k2 n2048 tight bounds", 2000U, 1, 0x40cd34b7e0280612ULL, 0x40cd34b01833abacULL, 0xe52daeb0993447a5ULL},
    {"unif k5 n12 loose parent", 447U, 0, 0x4048f0be85396f88ULL, 0x4048f0be85396f88ULL, 0x73da108b8943b802ULL},
    {"unif k5 n12 loose cold", 1256U, 0, 0x404bf58738040858ULL, 0x404bf58738040858ULL, 0x99127eebd8859941ULL},
    {"unif k5 n12 loose warm", 1256U, 0, 0x404bf58738040858ULL, 0x404bf58738040858ULL, 0x99127eebd8859941ULL},
    {"unif k5 n12 loose bounds", 1256U, 0, 0x404bf58738040858ULL, 0x404bf58738040858ULL, 0x99127eebd8859941ULL},
    {"unif k5 n12 tight parent", 284U, 0, 0x4044f7b2d9515901ULL, 0x4044f7b2d9515901ULL, 0xa5d32d7fb13c1382ULL},
    {"unif k5 n12 tight cold", 3123U, 0, 0x40500873c9bed99fULL, 0x40500873c9bed99fULL, 0x7c62b497dc785485ULL},
    {"unif k5 n12 tight warm", 2000U, 1, 0x4053a17343dcb7c0ULL, 0x4040cd07fd915f4bULL, 0x7601ff808c1ab60ULL},
    {"unif k5 n12 tight bounds", 2000U, 1, 0x4053a17343dcb7c0ULL, 0x4040cd07fd915f4bULL, 0x7601ff808c1ab60ULL},
    {"unif k5 n300 loose parent", 0U, 0, 0x4091917f4560bf11ULL, 0x4091917f4560bf11ULL, 0x4ec25dca53fd8406ULL},
    {"unif k5 n300 loose cold", 1448U, 0, 0x4094230e13570fc9ULL, 0x4094230e13570fc9ULL, 0x2cf2651ffe509746ULL},
    {"unif k5 n300 loose warm", 1448U, 0, 0x4094230e13570fc9ULL, 0x4094230e13570fc9ULL, 0x2cf2651ffe509746ULL},
    {"unif k5 n300 loose bounds", 1448U, 0, 0x4094230e13570fc9ULL, 0x4094230e13570fc9ULL, 0x2cf2651ffe509746ULL},
    {"unif k5 n300 tight parent", 0U, 0, 0x4092169771c8f2acULL, 0x4092169771c8f2acULL, 0x755946312131a22ULL},
    {"unif k5 n300 tight cold", 5000U, 1, 0x409432c9ce556c5cULL, 0x4093e3a8a2ac42e8ULL, 0x2921c5b91e2afac0ULL},
    {"unif k5 n300 tight warm", 2000U, 1, 0x40943729bca8f848ULL, 0x4093e3a8a2ac42e8ULL, 0x61a064bd7d773c86ULL},
    {"unif k5 n300 tight bounds", 2000U, 1, 0x40943729bca8f848ULL, 0x4093e3a8a2ac42e8ULL, 0x61a064bd7d773c86ULL},
    {"unif k5 n2048 loose parent", 0U, 0, 0x40bdee734b3caf74ULL, 0x40bdee734b3caf74ULL, 0x8d0c86785dccb8e1ULL},
    {"unif k5 n2048 loose cold", 0U, 0, 0x40c0f927b916cb02ULL, 0x40c0f927b916cb02ULL, 0x4465a1cd513ffd20ULL},
    {"unif k5 n2048 loose warm", 0U, 0, 0x40c0f927b916cb02ULL, 0x40c0f927b916cb02ULL, 0x4465a1cd513ffd20ULL},
    {"unif k5 n2048 loose bounds", 0U, 0, 0x40c0f927b916cb02ULL, 0x40c0f927b916cb02ULL, 0x4465a1cd513ffd20ULL},
    {"unif k5 n2048 tight parent", 0U, 0, 0x40be31c1c945bc4dULL, 0x40be31c1c945bc4dULL, 0x941d0da98abdd22ULL},
    {"unif k5 n2048 tight cold", 5000U, 1, 0x40c105bd72d32ea0ULL, 0x40c0f27341f5ff8cULL, 0x2f16bd85fa14865ULL},
    {"unif k5 n2048 tight warm", 2000U, 1, 0x40c105bd72d32ea0ULL, 0x40c0f27341f5ff8cULL, 0x2f16bd85fa14865ULL},
    {"unif k5 n2048 tight bounds", 2000U, 1, 0x40c105bd72d32ea0ULL, 0x40c0f27341f5ff8cULL, 0x2f16bd85fa14865ULL},
    {"unif k16 n12 loose parent", 0U, 2, 0x0ULL, 0x4040b27d10cc93a7ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 loose cold", 0U, 2, 0x0ULL, 0x4040d6fad16b18a6ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 loose warm", 0U, 2, 0x0ULL, 0x4040d6fad16b18a6ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 loose bounds", 0U, 2, 0x0ULL, 0x4040d6fad16b18a6ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 tight parent", 0U, 2, 0x0ULL, 0x403c08d28abd2648ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 tight cold", 0U, 2, 0x0ULL, 0x403c08d28abd2648ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 tight warm", 0U, 2, 0x0ULL, 0x403c08d28abd2648ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n12 tight bounds", 0U, 2, 0x0ULL, 0x403c08d28abd2648ULL, 0xcbf29ce484222325ULL},
    {"unif k16 n300 loose parent", 5000U, 1, 0x40839f0a02ab2302ULL, 0x4083518abbe5d67dULL, 0x491338333cd17d59ULL},
    {"unif k16 n300 loose cold", 5000U, 1, 0x4084556b7a5fce32ULL, 0x408411dac23f20fbULL, 0xeddef54b7dd575e4ULL},
    {"unif k16 n300 loose warm", 2000U, 1, 0x4084556b7a5fce32ULL, 0x408411dac23f20fbULL, 0xeddef54b7dd575e4ULL},
    {"unif k16 n300 loose bounds", 2000U, 1, 0x4084556b7a5fce32ULL, 0x408411dac23f20fbULL, 0xeddef54b7dd575e4ULL},
    {"unif k16 n300 tight parent", 5000U, 1, 0x4082fb8a4e46077dULL, 0x4082ae6bc12f0832ULL, 0x2591913f12af47b5ULL},
    {"unif k16 n300 tight cold", 5000U, 1, 0x4084439a9e684b93ULL, 0x40836bebe5dd1c11ULL, 0x8534f66ee2dcf7e2ULL},
    {"unif k16 n300 tight warm", 2000U, 1, 0x4084439a9e684b93ULL, 0x40836bebe5dd1c11ULL, 0x8534f66ee2dcf7e2ULL},
    {"unif k16 n300 tight bounds", 2000U, 1, 0x4084439a9e684b93ULL, 0x40836bebe5dd1c11ULL, 0x8534f66ee2dcf7e2ULL},
    {"unif k16 n2048 loose parent", 5000U, 1, 0x40b06d7dbb74af59ULL, 0x40b06d0ab902395aULL, 0x7353af5521aa3802ULL},
    {"unif k16 n2048 loose cold", 5000U, 1, 0x40b0fb7557eacfddULL, 0x40b0f94b018b7857ULL, 0x785f077a16bba024ULL},
    {"unif k16 n2048 loose warm", 2000U, 1, 0x40b0fb7557eacfddULL, 0x40b0f94b018b7857ULL, 0x785f077a16bba024ULL},
    {"unif k16 n2048 loose bounds", 2000U, 1, 0x40b0fb7557eacfddULL, 0x40b0f94b018b7857ULL, 0x785f077a16bba024ULL},
    {"unif k16 n2048 tight parent", 5000U, 1, 0x40b039ce2d34505cULL, 0x40b0300d387876d1ULL, 0xba1545c50d7cdf45ULL},
    {"unif k16 n2048 tight cold", 5000U, 1, 0x40b150f1e58ddab9ULL, 0x40b0bd2dbe5ae653ULL, 0xb017228137c582e0ULL},
    {"unif k16 n2048 tight warm", 2000U, 1, 0x40b150f1e58ddab9ULL, 0x40b0bd2dbe5ae653ULL, 0xb017228137c582e0ULL},
    {"unif k16 n2048 tight bounds", 2000U, 1, 0x40b150f1e58ddab9ULL, 0x40b0bd2dbe5ae653ULL, 0xb017228137c582e0ULL},
    {"ties k2 n12 loose parent", 0U, 0, 0x4035000000000000ULL, 0x4035000000000000ULL, 0x1406a70d3073d1c4ULL},
    {"ties k2 n12 loose cold", 0U, 0, 0x403c000000000000ULL, 0x403c000000000000ULL, 0x660868f1219e7405ULL},
    {"ties k2 n12 loose warm", 0U, 0, 0x403c000000000000ULL, 0x403c000000000000ULL, 0x9d16d8e68beb8405ULL},
    {"ties k2 n12 loose bounds", 0U, 0, 0x403c000000000000ULL, 0x403c000000000000ULL, 0x660868f1219e7405ULL},
    {"ties k2 n12 tight parent", 0U, 0, 0x402e000000000000ULL, 0x402e000000000000ULL, 0x7aae4531b8f16827ULL},
    {"ties k2 n12 tight cold", 0U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xda4fcd4ed6c9ac45ULL},
    {"ties k2 n12 tight warm", 0U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xda4fcd4ed6c9ac45ULL},
    {"ties k2 n12 tight bounds", 0U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xda4fcd4ed6c9ac45ULL},
    {"ties k2 n300 loose parent", 0U, 0, 0x407cf00000000000ULL, 0x407cf00000000000ULL, 0x96d3e4ae6e748f44ULL},
    {"ties k2 n300 loose cold", 0U, 0, 0x4081a00000000000ULL, 0x4081a00000000000ULL, 0xa5fad6651a853a44ULL},
    {"ties k2 n300 loose warm", 0U, 0, 0x4081a00000000000ULL, 0x4081a00000000000ULL, 0x97bb6e457f918144ULL},
    {"ties k2 n300 loose bounds", 0U, 0, 0x4081a00000000000ULL, 0x4081a00000000000ULL, 0xa5fad6651a853a44ULL},
    {"ties k2 n300 tight parent", 0U, 0, 0x407d700000000000ULL, 0x407d700000000000ULL, 0x1a9b6a9ee4f92da6ULL},
    {"ties k2 n300 tight cold", 0U, 0, 0x4081e80000000000ULL, 0x4081e80000000000ULL, 0xcea1006da9615a84ULL},
    {"ties k2 n300 tight warm", 0U, 0, 0x4081e80000000000ULL, 0x4081e80000000000ULL, 0xcea1006da9615a84ULL},
    {"ties k2 n300 tight bounds", 0U, 0, 0x4081e80000000000ULL, 0x4081e80000000000ULL, 0xcea1006da9615a84ULL},
    {"ties k2 n2048 loose parent", 0U, 0, 0x40a8dc0000000000ULL, 0x40a8dc0000000000ULL, 0xbca5d052641df6a4ULL},
    {"ties k2 n2048 loose cold", 0U, 0, 0x40ae160000000000ULL, 0x40ae160000000000ULL, 0xff2882c499b6d4c5ULL},
    {"ties k2 n2048 loose warm", 0U, 0, 0x40ae160000000000ULL, 0x40ae160000000000ULL, 0xff2882c499b6d4c5ULL},
    {"ties k2 n2048 loose bounds", 0U, 0, 0x40ae160000000000ULL, 0x40ae160000000000ULL, 0xff2882c499b6d4c5ULL},
    {"ties k2 n2048 tight parent", 0U, 0, 0x40a8a00000000000ULL, 0x40a8a00000000000ULL, 0x303a9b56ff1b566ULL},
    {"ties k2 n2048 tight cold", 0U, 0, 0x40adb20000000000ULL, 0x40adb20000000000ULL, 0x1aa3bf4fc84765c5ULL},
    {"ties k2 n2048 tight warm", 0U, 0, 0x40adb20000000000ULL, 0x40adb20000000000ULL, 0x1aa3bf4fc84765c5ULL},
    {"ties k2 n2048 tight bounds", 0U, 0, 0x40adb20000000000ULL, 0x40adb20000000000ULL, 0x1aa3bf4fc84765c5ULL},
    {"ties k5 n12 loose parent", 0U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0x95ac123922389d01ULL},
    {"ties k5 n12 loose cold", 77U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0x26df659634dd6a61ULL},
    {"ties k5 n12 loose warm", 0U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xfa0b538fc0202f67ULL},
    {"ties k5 n12 loose bounds", 77U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0x26df659634dd6a61ULL},
    {"ties k5 n12 tight parent", 29U, 0, 0x4031000000000000ULL, 0x4031000000000000ULL, 0xce790b4e16b4781ULL},
    {"ties k5 n12 tight cold", 29U, 0, 0x4033000000000000ULL, 0x4033000000000000ULL, 0xd2c448b8ff7fafc2ULL},
    {"ties k5 n12 tight warm", 29U, 0, 0x4033000000000000ULL, 0x4033000000000000ULL, 0xd2c448b8ff7fafc2ULL},
    {"ties k5 n12 tight bounds", 29U, 0, 0x4033000000000000ULL, 0x4033000000000000ULL, 0xd2c448b8ff7fafc2ULL},
    {"ties k5 n300 loose parent", 0U, 0, 0x4076500000000000ULL, 0x4076500000000000ULL, 0xdb39541192a2103ULL},
    {"ties k5 n300 loose cold", 0U, 0, 0x4077c00000000000ULL, 0x4077c00000000000ULL, 0xe7610de1292fce65ULL},
    {"ties k5 n300 loose warm", 0U, 0, 0x4077c00000000000ULL, 0x4077c00000000000ULL, 0xe7610de1292fce65ULL},
    {"ties k5 n300 loose bounds", 0U, 0, 0x4077c00000000000ULL, 0x4077c00000000000ULL, 0xe7610de1292fce65ULL},
    {"ties k5 n300 tight parent", 0U, 0, 0x4077000000000000ULL, 0x4077000000000000ULL, 0xd2988c6ca094f781ULL},
    {"ties k5 n300 tight cold", 5000U, 1, 0x4078500000000000ULL, 0x4078100000000000ULL, 0x9af6ed2a63799522ULL},
    {"ties k5 n300 tight warm", 2000U, 1, 0x4078500000000000ULL, 0x4078100000000000ULL, 0x9af6ed2a63799522ULL},
    {"ties k5 n300 tight bounds", 2000U, 1, 0x4078500000000000ULL, 0x4078100000000000ULL, 0x9af6ed2a63799522ULL},
    {"ties k5 n2048 loose parent", 0U, 0, 0x40a3320000000000ULL, 0x40a3320000000000ULL, 0x81858c5fd0b002e7ULL},
    {"ties k5 n2048 loose cold", 0U, 0, 0x40a45e0000000000ULL, 0x40a45e0000000000ULL, 0x216d9520a810d141ULL},
    {"ties k5 n2048 loose warm", 0U, 0, 0x40a45e0000000000ULL, 0x40a45e0000000000ULL, 0xc3fb486c3c1ae783ULL},
    {"ties k5 n2048 loose bounds", 0U, 0, 0x40a45e0000000000ULL, 0x40a45e0000000000ULL, 0x216d9520a810d141ULL},
    {"ties k5 n2048 tight parent", 0U, 0, 0x40a3220000000000ULL, 0x40a3220000000000ULL, 0x697317f35250d266ULL},
    {"ties k5 n2048 tight cold", 0U, 0, 0x40a4540000000000ULL, 0x40a4540000000000ULL, 0x6e44d4a8db6f0782ULL},
    {"ties k5 n2048 tight warm", 0U, 0, 0x40a4540000000000ULL, 0x40a4540000000000ULL, 0x6e44d4a8db6f0782ULL},
    {"ties k5 n2048 tight bounds", 0U, 0, 0x40a4540000000000ULL, 0x40a4540000000000ULL, 0x6e44d4a8db6f0782ULL},
    {"ties k16 n12 loose parent", 0U, 2, 0x0ULL, 0x4028000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 loose cold", 0U, 2, 0x0ULL, 0x4028000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 loose warm", 0U, 2, 0x0ULL, 0x4028000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 loose bounds", 0U, 2, 0x0ULL, 0x4028000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight parent", 0U, 2, 0x0ULL, 0x402a000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight cold", 0U, 2, 0x0ULL, 0x402a000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight warm", 0U, 2, 0x0ULL, 0x402a000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight bounds", 0U, 2, 0x0ULL, 0x402a000000000000ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n300 loose parent", 0U, 0, 0x4072d00000000000ULL, 0x4072d00000000000ULL, 0x616262b608305474ULL},
    {"ties k16 n300 loose cold", 0U, 0, 0x4072d00000000000ULL, 0x4072d00000000000ULL, 0x1d8431c830f0c1a1ULL},
    {"ties k16 n300 loose warm", 0U, 0, 0x4072d00000000000ULL, 0x4072d00000000000ULL, 0x4be5323614d003ccULL},
    {"ties k16 n300 loose bounds", 0U, 0, 0x4072d00000000000ULL, 0x4072d00000000000ULL, 0x1d8431c830f0c1a1ULL},
    {"ties k16 n300 tight parent", 0U, 0, 0x4072e00000000000ULL, 0x4072e00000000000ULL, 0xc22c5d7375c7dd91ULL},
    {"ties k16 n300 tight cold", 0U, 0, 0x4072f00000000000ULL, 0x4072f00000000000ULL, 0x45476d62692d12eeULL},
    {"ties k16 n300 tight warm", 0U, 0, 0x4072f00000000000ULL, 0x4072f00000000000ULL, 0x45476d62692d12eeULL},
    {"ties k16 n300 tight bounds", 0U, 0, 0x4072f00000000000ULL, 0x4072f00000000000ULL, 0x45476d62692d12eeULL},
    {"ties k16 n2048 loose parent", 0U, 0, 0x40a0160000000000ULL, 0x40a0160000000000ULL, 0xb60c95327468e77ULL},
    {"ties k16 n2048 loose cold", 0U, 0, 0x40a0240000000000ULL, 0x40a0240000000000ULL, 0xd4c5ec1c2271db6eULL},
    {"ties k16 n2048 loose warm", 0U, 0, 0x40a0240000000000ULL, 0x40a0240000000000ULL, 0x5b81cc85f14963e5ULL},
    {"ties k16 n2048 loose bounds", 0U, 0, 0x40a0240000000000ULL, 0x40a0240000000000ULL, 0xd4c5ec1c2271db6eULL},
    {"ties k16 n2048 tight parent", 0U, 0, 0x40a0240000000000ULL, 0x40a0240000000000ULL, 0xd94240b60c3ebfeaULL},
    {"ties k16 n2048 tight cold", 0U, 0, 0x40a0300000000000ULL, 0x40a0300000000000ULL, 0x57c9248f4758bc8aULL},
    {"ties k16 n2048 tight warm", 0U, 0, 0x40a0300000000000ULL, 0x40a0300000000000ULL, 0xd24367eaa8fd1b4bULL},
    {"ties k16 n2048 tight bounds", 0U, 0, 0x40a0300000000000ULL, 0x40a0300000000000ULL, 0x57c9248f4758bc8aULL},
};

const std::vector<Expected> kHeuristicPins = {
    {"ties k2 n12 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 loose regret polish", 0U, 0, 0x4035000000000000ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 loose regret exhaustive", 0U, 0, 0x4035000000000000ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 loose time polish", 0U, 0, 0x4035000000000000ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 loose time exhaustive", 0U, 0, 0x4035000000000000ULL, 0x0ULL, 0xaf0a8a38123d8404ULL},
    {"ties k2 n12 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x88b0d731f1473045ULL},
    {"ties k2 n12 tight regret polish", 0U, 0, 0x4033000000000000ULL, 0x0ULL, 0x88b0d731f1473045ULL},
    {"ties k2 n12 tight regret exhaustive", 0U, 0, 0x4033000000000000ULL, 0x0ULL, 0x88b0d731f1473045ULL},
    {"ties k2 n12 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x766fe172c5f69fc5ULL},
    {"ties k2 n12 tight time polish", 0U, 0, 0x4033000000000000ULL, 0x0ULL, 0x88b0d731f1473045ULL},
    {"ties k2 n12 tight time exhaustive", 0U, 0, 0x4033000000000000ULL, 0x0ULL, 0x88b0d731f1473045ULL},
    {"ties k2 n300 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x48bdfe8b0d4948c4ULL},
    {"ties k2 n300 loose regret polish", 0U, 0, 0x4080a00000000000ULL, 0x0ULL, 0x48bdfe8b0d4948c4ULL},
    {"ties k2 n300 loose regret exhaustive", 0U, 0, 0x4080a00000000000ULL, 0x0ULL, 0x48bdfe8b0d4948c4ULL},
    {"ties k2 n300 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xb7f19b68039ae184ULL},
    {"ties k2 n300 loose time polish", 0U, 0, 0x4080a00000000000ULL, 0x0ULL, 0xb7f19b68039ae184ULL},
    {"ties k2 n300 loose time exhaustive", 0U, 0, 0x4080a00000000000ULL, 0x0ULL, 0xb7f19b68039ae184ULL},
    {"ties k2 n300 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x2056416f3421b4e5ULL},
    {"ties k2 n300 tight regret polish", 0U, 0, 0x4081480000000000ULL, 0x0ULL, 0x2056416f3421b4e5ULL},
    {"ties k2 n300 tight regret exhaustive", 0U, 0, 0x4081480000000000ULL, 0x0ULL, 0x2056416f3421b4e5ULL},
    {"ties k2 n300 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xeedfcc3970191ee5ULL},
    {"ties k2 n300 tight time polish", 0U, 0, 0x4081480000000000ULL, 0x0ULL, 0xeedfcc3970191ee5ULL},
    {"ties k2 n300 tight time exhaustive", 0U, 0, 0x4081480000000000ULL, 0x0ULL, 0xeedfcc3970191ee5ULL},
    {"ties k2 n2048 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x8f8e778cc8ebfda4ULL},
    {"ties k2 n2048 loose regret polish", 0U, 0, 0x40adcc0000000000ULL, 0x0ULL, 0x8f8e778cc8ebfda4ULL},
    {"ties k2 n2048 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x401510d90d5ec125ULL},
    {"ties k2 n2048 loose time polish", 0U, 0, 0x40adcc0000000000ULL, 0x0ULL, 0x401510d90d5ec125ULL},
    {"ties k2 n2048 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x6f4a27f5832114c5ULL},
    {"ties k2 n2048 tight regret polish", 0U, 0, 0x40ae2e0000000000ULL, 0x0ULL, 0x6f4a27f5832114c5ULL},
    {"ties k2 n2048 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k5 n12 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x983723cd28ab4404ULL},
    {"ties k5 n12 loose regret polish", 0U, 0, 0x402a000000000000ULL, 0x0ULL, 0xd6aeefd6a7a14d84ULL},
    {"ties k5 n12 loose regret exhaustive", 0U, 0, 0x402c000000000000ULL, 0x0ULL, 0x4813274f06dcd3e4ULL},
    {"ties k5 n12 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x3bed1d57b36d3b47ULL},
    {"ties k5 n12 loose time polish", 0U, 0, 0x402a000000000000ULL, 0x0ULL, 0x7a64e961326344c7ULL},
    {"ties k5 n12 loose time exhaustive", 0U, 0, 0x402c000000000000ULL, 0x0ULL, 0xcf78e7ae3d9f9e67ULL},
    {"ties k5 n12 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k5 n12 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x2f67161cb0d33940ULL},
    {"ties k5 n12 tight time polish", 0U, 0, 0x4032000000000000ULL, 0x0ULL, 0x7c44a35e8b75e100ULL},
    {"ties k5 n12 tight time exhaustive", 0U, 0, 0x4032000000000000ULL, 0x0ULL, 0x7c44a35e8b75e100ULL},
    {"ties k5 n300 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x3b370eb56d327522ULL},
    {"ties k5 n300 loose regret polish", 0U, 0, 0x4077a00000000000ULL, 0x0ULL, 0x3b370eb56d327522ULL},
    {"ties k5 n300 loose regret exhaustive", 0U, 0, 0x4077a00000000000ULL, 0x0ULL, 0x3b370eb56d327522ULL},
    {"ties k5 n300 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x15dd0b474e69e140ULL},
    {"ties k5 n300 loose time polish", 0U, 0, 0x4077a00000000000ULL, 0x0ULL, 0x15dd0b474e69e140ULL},
    {"ties k5 n300 loose time exhaustive", 0U, 0, 0x4077a00000000000ULL, 0x0ULL, 0x15dd0b474e69e140ULL},
    {"ties k5 n300 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x4fcb3864d31b5f67ULL},
    {"ties k5 n300 tight regret polish", 0U, 0, 0x4077800000000000ULL, 0x0ULL, 0x4fcb3864d31b5f67ULL},
    {"ties k5 n300 tight regret exhaustive", 0U, 0, 0x4077800000000000ULL, 0x0ULL, 0x4fcb3864d31b5f67ULL},
    {"ties k5 n300 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xfa3d3fe22003fa42ULL},
    {"ties k5 n300 tight time polish", 0U, 0, 0x4077800000000000ULL, 0x0ULL, 0x2a1f3c983aa977c2ULL},
    {"ties k5 n300 tight time exhaustive", 0U, 0, 0x4077800000000000ULL, 0x0ULL, 0x3f3c27b6d6775a62ULL},
    {"ties k5 n2048 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xd2442454d48ec5e0ULL},
    {"ties k5 n2048 loose regret polish", 0U, 0, 0x40a49a0000000000ULL, 0x0ULL, 0xd2442454d48ec5e0ULL},
    {"ties k5 n2048 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xe115f005068a61a0ULL},
    {"ties k5 n2048 loose time polish", 0U, 0, 0x40a49a0000000000ULL, 0x0ULL, 0xe115f005068a61a0ULL},
    {"ties k5 n2048 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x3d4a252af114d784ULL},
    {"ties k5 n2048 tight regret polish", 0U, 0, 0x40a4620000000000ULL, 0x0ULL, 0x3d4a252af114d784ULL},
    {"ties k5 n2048 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x36711f0288d55007ULL},
    {"ties k5 n2048 tight time polish", 0U, 0, 0x40a4620000000000ULL, 0x0ULL, 0x36711f0288d55007ULL},
    {"ties k16 n12 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n12 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xcbf29ce484222325ULL},
    {"ties k16 n300 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x9785d611d78dbdecULL},
    {"ties k16 n300 loose regret polish", 0U, 0, 0x4073200000000000ULL, 0x0ULL, 0x9785d611d78dbdecULL},
    {"ties k16 n300 loose regret exhaustive", 0U, 0, 0x4073200000000000ULL, 0x0ULL, 0x9785d611d78dbdecULL},
    {"ties k16 n300 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x67666ebdc9deae05ULL},
    {"ties k16 n300 loose time polish", 0U, 0, 0x4073200000000000ULL, 0x0ULL, 0x67666ebdc9deae05ULL},
    {"ties k16 n300 loose time exhaustive", 0U, 0, 0x4073200000000000ULL, 0x0ULL, 0x67666ebdc9deae05ULL},
    {"ties k16 n300 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x3725a1e8b74950c4ULL},
    {"ties k16 n300 tight regret polish", 0U, 0, 0x4072d00000000000ULL, 0x0ULL, 0x3725a1e8b74950c4ULL},
    {"ties k16 n300 tight regret exhaustive", 0U, 0, 0x4072d00000000000ULL, 0x0ULL, 0x3725a1e8b74950c4ULL},
    {"ties k16 n300 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x4143c89cd7a80a6ULL},
    {"ties k16 n300 tight time polish", 0U, 0, 0x4072d00000000000ULL, 0x0ULL, 0x4143c89cd7a80a6ULL},
    {"ties k16 n300 tight time exhaustive", 0U, 0, 0x4072d00000000000ULL, 0x0ULL, 0x4143c89cd7a80a6ULL},
    {"ties k16 n2048 loose regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0xc55dfa55a3346de8ULL},
    {"ties k16 n2048 loose regret polish", 0U, 0, 0x40a0260000000000ULL, 0x0ULL, 0xc55dfa55a3346de8ULL},
    {"ties k16 n2048 loose time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x4100f716e59ea9a7ULL},
    {"ties k16 n2048 loose time polish", 0U, 0, 0x40a0260000000000ULL, 0x0ULL, 0x4100f716e59ea9a7ULL},
    {"ties k16 n2048 tight regret greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x5b9f15c03981e868ULL},
    {"ties k16 n2048 tight regret polish", 0U, 0, 0x40a0260000000000ULL, 0x0ULL, 0x5b9f15c03981e868ULL},
    {"ties k16 n2048 tight time greedy", 0U, 0, 0x0ULL, 0x0ULL, 0x915ca1d4a9469961ULL},
    {"ties k16 n2048 tight time polish", 0U, 0, 0x40a0260000000000ULL, 0x0ULL, 0x915ca1d4a9469961ULL},
};
// clang-format on

TEST(SearchPinTest, BnbNodeSequenceIsPinned) {
  expect_table(bnb_grid(), kBnbPins);
}

TEST(SearchPinTest, GreedyAndLocalSearchOnTiesArePinned) {
  expect_table(heuristic_grid(), kHeuristicPins);
}

}  // namespace
}  // namespace svo::ip
