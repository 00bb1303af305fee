#include "workload/braun.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace svo::workload {

namespace {

/// Rows shorter than this go to std::sort: below it, clearing and
/// prefix-summing eight 256-entry histograms costs more than the
/// comparisons saved. Timed over whole 16-GSP generate_braun_costs calls
/// on fresh draws (x86-64, gcc 12 -O3), radix rows took 1.3-2x
/// std::sort's time at 32-48 tasks, about the same at 56-80, 0.6-0.7x
/// at 96 and 0.55x at 512; the sorts alone, 0.3x at 8192.
constexpr std::size_t kRadixMinSize = 96;

/// Sort `v` ascending into exactly std::sort's sequence. Every value is
/// >= 1 and not NaN, and for such doubles the IEEE-754 bit patterns,
/// read as unsigned integers, order as the values do, with equal values
/// sharing one pattern; so an LSD radix sort over the patterns, one byte
/// per pass, returns the sorted multiset std::sort returns. Passes whose
/// byte is the same for every value are skipped. `keys` and `spare` are
/// scratch space, reused across calls.
void sort_costs(std::vector<double>& v, std::vector<std::uint64_t>& keys,
                std::vector<std::uint64_t>& spare) {
  const std::size_t n = v.size();
  if (n < kRadixMinSize) {
    std::sort(v.begin(), v.end());
    return;
  }
  constexpr int kPasses = 8;
  keys.resize(n);
  spare.resize(n);
  std::array<std::array<std::size_t, 256>, kPasses> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = std::bit_cast<std::uint64_t>(v[i]);
    keys[i] = k;
    for (int p = 0; p < kPasses; ++p) ++count[p][(k >> (8 * p)) & 0xFFU];
  }
  std::uint64_t* from = keys.data();
  std::uint64_t* to = spare.data();
  for (int p = 0; p < kPasses; ++p) {
    const int shift = 8 * p;
    std::array<std::size_t, 256>& next = count[p];
    if (next[(from[0] >> shift) & 0xFFU] == n) continue;
    std::exclusive_scan(next.begin(), next.end(), next.begin(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      to[next[(from[i] >> shift) & 0xFFU]++] = from[i];
    }
    std::swap(from, to);
  }
  std::transform(from, from + n, v.begin(),
                 [](std::uint64_t k) { return std::bit_cast<double>(k); });
}

}  // namespace

linalg::Matrix generate_braun_costs(std::size_t num_gsps,
                                    const std::vector<double>& workloads,
                                    const BraunOptions& opts,
                                    util::Xoshiro256& rng) {
  detail::require(num_gsps > 0, "generate_braun_costs: num_gsps == 0");
  detail::require(!workloads.empty(), "generate_braun_costs: no workloads");
  detail::require(opts.phi_b >= 1.0 && opts.phi_r >= 1.0 &&
                      std::isfinite(opts.phi_b) && std::isfinite(opts.phi_r),
                  "generate_braun_costs: phi_b/phi_r must be finite and >= 1");
  const std::size_t n = workloads.size();

  // Workload rank of each task: rank[t] = position of t when tasks are
  // sorted by ascending workload (stable on ties).
  std::vector<std::size_t> by_workload(n);
  std::iota(by_workload.begin(), by_workload.end(), 0);
  std::stable_sort(by_workload.begin(), by_workload.end(),
                   [&](std::size_t a, std::size_t b) {
                     return workloads[a] < workloads[b];
                   });

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> spare;
  // Baseline vector, one value per task, U[1, phi_b].
  std::vector<double> baseline(n);
  for (double& b : baseline) b = rng.uniform(1.0, opts.phi_b);
  if (opts.monotonicity != WorkloadMonotonicity::None) {
    // Align the baseline with workload: smallest workload gets the
    // smallest baseline value.
    std::vector<double> sorted_b = baseline;
    sort_costs(sorted_b, keys, spare);
    for (std::size_t r = 0; r < n; ++r) baseline[by_workload[r]] = sorted_b[r];
  }

  linalg::Matrix cost(num_gsps, n);
  std::vector<double> row(n);
  for (std::size_t g = 0; g < num_gsps; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      cost(g, t) = baseline[t] * rng.uniform(1.0, opts.phi_r);
    }
    if (opts.monotonicity == WorkloadMonotonicity::Strict) {
      // Re-rank this GSP's costs so cost order == workload order while
      // keeping the row's multiset of values (paper: smallest-workload
      // task is cheapest on every GSP).
      for (std::size_t t = 0; t < n; ++t) row[t] = cost(g, t);
      sort_costs(row, keys, spare);
      for (std::size_t r = 0; r < n; ++r) cost(g, by_workload[r]) = row[r];
    }
  }
  return cost;
}

}  // namespace svo::workload
