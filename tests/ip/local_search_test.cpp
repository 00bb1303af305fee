#include "ip/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ip/greedy.hpp"
#include "ip/solve_kernel.hpp"
#include "tests/ip/test_instances.hpp"
#include "util/rng.hpp"

namespace svo::ip {
namespace {

/// The sequential local search the screened swap pass must reproduce:
/// each sampled partner is drawn with Xoshiro256::index and tried at
/// once against the current state.
namespace reference {

struct State {
  std::vector<double> load;
  std::vector<std::size_t> task_count;
  double cost = 0.0;
  std::size_t nan_swaps = 0;  ///< applied swaps whose delta was NaN

  State(const SolveKernel& kernel, const Assignment& a)
      : load(kernel.num_gsps(), 0.0), task_count(kernel.num_gsps(), 0) {
    for (std::size_t t = 0; t < a.size(); ++t) {
      load[a[t]] += kernel.times(t)[a[t]];
      ++task_count[a[t]];
      cost += kernel.costs(t)[a[t]];
    }
  }
};

bool move_pass(const SolveKernel& kernel, Assignment& a, State& st) {
  bool improved = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const std::size_t from = a[t];
    if (kernel.require_all_gsps_used() && st.task_count[from] <= 1) continue;
    const double* costs = kernel.costs(t);
    const double* times = kernel.times(t);
    const double c_from = costs[from];
    const std::uint32_t* order = kernel.cost_order(t);
    for (std::size_t i = 0; i < kernel.num_gsps(); ++i) {
      const std::size_t g = order[i];
      if (costs[g] >= c_from) break;
      if (st.load[g] + times[g] > kernel.deadline()) continue;
      st.load[from] -= times[from];
      --st.task_count[from];
      st.load[g] += times[g];
      ++st.task_count[g];
      st.cost += costs[g] - c_from;
      a[t] = g;
      improved = true;
      break;
    }
  }
  return improved;
}

bool try_swap(const SolveKernel& kernel, Assignment& a, State& st,
              std::size_t t, std::size_t u) {
  const std::size_t gt = a[t];
  const std::size_t gu = a[u];
  if (gt == gu) return false;
  const double* cost_t = kernel.costs(t);
  const double* cost_u = kernel.costs(u);
  const double delta = cost_t[gu] + cost_u[gt] - cost_t[gt] - cost_u[gu];
  if (delta >= -1e-12) return false;
  const double* time_t = kernel.times(t);
  const double* time_u = kernel.times(u);
  const double new_load_gt = st.load[gt] - time_t[gt] + time_u[gt];
  const double new_load_gu = st.load[gu] - time_u[gu] + time_t[gu];
  if (new_load_gt > kernel.deadline() || new_load_gu > kernel.deadline()) {
    return false;
  }
  st.load[gt] = new_load_gt;
  st.load[gu] = new_load_gu;
  st.cost += delta;
  st.nan_swaps += delta != delta ? 1 : 0;
  std::swap(a[t], a[u]);
  return true;
}

double local_search(const SolveKernel& kernel, Assignment& a,
                    const LocalSearchOptions& opts, std::size_t& nan_swaps) {
  State st(kernel, a);
  for (std::size_t pass = 0; pass < opts.max_move_passes; ++pass) {
    if (!move_pass(kernel, a, st)) break;
  }
  if (opts.max_swap_passes > 0 && kernel.num_gsps() > 1 && a.size() > 1) {
    util::Xoshiro256 rng(opts.seed);
    for (std::size_t pass = 0; pass < opts.max_swap_passes; ++pass) {
      bool improved = false;
      for (std::size_t t = 0; t < a.size(); ++t) {
        for (std::size_t s = 0; s < opts.swap_sample_per_task; ++s) {
          const std::size_t u = rng.index(a.size());
          if (u != t) improved |= try_swap(kernel, a, st, t, u);
        }
      }
      if (!improved) break;
      while (move_pass(kernel, a, st)) {
      }
    }
  }
  nan_swaps += st.nan_swaps;
  return st.cost;
}

}  // namespace reference

/// Cost families of the screened-pass comparison.
enum class Family { Uniform, Ties, Infinite };

/// k x n instance of `family` under a loose or a binding deadline, and
/// an entry mapping that satisfies (11)-(13). Infinite puts +inf on
/// every (g, t) with g + t even, gives every task time 1 and maps task
/// t to GSP t % k, so many tasks start on a +inf cost and many of their
/// swaps have NaN deltas (inf - inf), often the first swap of a task
/// that applies. Its binding deadline, ceil(n / k), leaves the GSPs
/// (nearly) full, so the move passes cannot undo a swap.
std::pair<AssignmentInstance, Assignment> screen_case(
    Family family, std::size_t k, std::size_t n, bool binding,
    util::Xoshiro256& rng) {
  const bool infinite = family == Family::Infinite;
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(k, n);
  inst.time = linalg::Matrix(k, n, 1.0);
  double total_time = 0.0;
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      inst.cost(g, t) = family == Family::Ties
                            ? static_cast<double>(1 + rng.index(3))
                            : rng.uniform(1.0, 20.0);
      if (infinite && (g + t) % 2 == 0) {
        inst.cost(g, t) = std::numeric_limits<double>::infinity();
      }
      if (!infinite) inst.time(g, t) = rng.uniform(0.5, 4.0);
      total_time += inst.time(g, t);
    }
  }
  inst.payment = 1e18;
  Assignment a;
  if (infinite) {
    inst.deadline = binding ? static_cast<double>((n + k - 1) / k) : total_time;
    a.resize(n);
    for (std::size_t t = 0; t < n; ++t) a[t] = t % k;
    return {std::move(inst), std::move(a)};
  }
  inst.deadline = binding ? 1.6 * total_time / static_cast<double>(k * k)
                          : total_time;
  a = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
  if (a.empty()) {
    inst.deadline = total_time;
    a = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
  }
  return {std::move(inst), std::move(a)};
}

TEST(LocalSearchTest, ScreenedSwapPassMatchesSequentialReference) {
  std::size_t nan_swaps = 0;
  std::uint64_t seed = 300;
  for (const Family family : {Family::Uniform, Family::Ties, Family::Infinite}) {
    for (const std::size_t n : {2, 3, 50, 1000}) {
      const std::size_t k = std::min<std::size_t>(n, n == 1000 ? 16 : 4);
      for (const std::size_t samples : {1, 8, 64, 65, 200}) {
        for (const bool binding : {false, true}) {
          util::Xoshiro256 rng(++seed);
          const auto [inst, entry] = screen_case(family, k, n, binding, rng);
          ASSERT_FALSE(entry.empty());
          const SolveKernel kernel(inst);
          LocalSearchOptions opts;
          opts.swap_sample_per_task = samples;
          opts.max_swap_passes = 3;
          opts.seed = seed;
          // Without move passes the swap pass starts on the entry
          // mapping, +inf costs included.
          opts.max_move_passes = family == Family::Infinite ? 0 : 20;
          Assignment expected = entry;
          Assignment actual = entry;
          const double expected_cost =
              reference::local_search(kernel, expected, opts, nan_swaps);
          const double actual_cost = local_search(kernel, actual, opts);
          const std::string where = std::to_string(n) + " tasks, " +
                                    std::to_string(samples) + " samples, seed " +
                                    std::to_string(seed);
          EXPECT_EQ(actual, expected) << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(actual_cost),
                    std::bit_cast<std::uint64_t>(expected_cost))
              << where;
        }
      }
    }
  }
  // The Infinite family must apply swaps with NaN deltas, or the
  // screen's NaN path goes untested.
  EXPECT_GT(nan_swaps, 0u);
}

TEST(LocalSearchTest, NeverIncreasesCostAndKeepsFeasibility) {
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    AssignmentInstance inst = testing::random_instance(4, 14, rng);
    inst.payment = 1e18;  // isolate (11)-(13)
    Assignment a =
        greedy_construct(inst, GreedyOptions::Order::TimeDescending);
    ASSERT_FALSE(a.empty());
    const double before = assignment_cost(inst, a);
    const double after = local_search(inst, a, {});
    EXPECT_LE(after, before + 1e-9);
    EXPECT_NEAR(after, assignment_cost(inst, a), 1e-9);
    EXPECT_EQ(check_feasible(inst, a), "");
  }
}

TEST(LocalSearchTest, FindsObviousRelocation) {
  // Task 1 starts on the expensive GSP with plenty of slack to move.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1}, {1, 50}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 10.0;
  inst.payment = 1e9;
  inst.require_all_gsps_used = false;
  Assignment a{0, 1};  // cost 51
  const double cost = local_search(inst, a, {});
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(a, (Assignment{0, 0}));
}

TEST(LocalSearchTest, RespectsCoverageWhenMoving) {
  // GSP 1 is uniformly expensive: relocating its lone task to the cheap
  // GSP 0 would improve cost but violate (13), and swapping does not help
  // (both columns cost the same on each GSP). Nothing may change.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1}, {50, 50}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 10.0;
  inst.payment = 1e9;
  inst.require_all_gsps_used = true;
  Assignment a{0, 1};
  const double cost = local_search(inst, a, {});
  EXPECT_DOUBLE_EQ(cost, 51.0);
  EXPECT_EQ(a, (Assignment{0, 1}));
}

TEST(LocalSearchTest, SwapPassFixesCrossedAssignment) {
  // Crossed assignment where moves are blocked by coverage but a swap
  // strictly improves: c = [[1, 9], [9, 1]].
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 9}, {9, 1}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 1.0;  // each GSP fits exactly one task
  inst.payment = 1e9;
  Assignment a{1, 0};  // cost 18
  LocalSearchOptions opts;
  opts.swap_sample_per_task = 0;  // exhaustive
  const double cost = local_search(inst, a, opts);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(a, (Assignment{0, 1}));
}

TEST(LocalSearchTest, ExhaustiveAndSampledAgreeOnFeasibility) {
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    AssignmentInstance inst = testing::random_instance(3, 10, rng);
    inst.payment = 1e18;
    Assignment a =
        greedy_construct(inst, GreedyOptions::Order::RegretDescending);
    ASSERT_FALSE(a.empty());
    Assignment b = a;
    LocalSearchOptions exhaustive;
    exhaustive.swap_sample_per_task = 0;
    LocalSearchOptions sampled;
    sampled.swap_sample_per_task = 16;
    const double ce = local_search(inst, a, exhaustive);
    const double cs = local_search(inst, b, sampled);
    EXPECT_EQ(check_feasible(inst, a), "");
    EXPECT_EQ(check_feasible(inst, b), "");
    // Exhaustive search explores a superset of swaps per pass; both must
    // be no worse than the common start, and usually close together.
    EXPECT_GT(ce, 0.0);
    EXPECT_GT(cs, 0.0);
  }
}

TEST(LocalSearchTest, RejectsInfeasibleEntry) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 1.0);
  inst.time = linalg::Matrix(2, 2, 5.0);
  inst.deadline = 4.0;
  inst.payment = 100.0;
  Assignment a{0, 0};  // busts deadline and coverage
  EXPECT_THROW((void)local_search(inst, a, {}), InvalidArgument);
}

}  // namespace
}  // namespace svo::ip
