#include "ip/solve_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ip/warm_start.hpp"

namespace svo::ip {

namespace {

/// Rank counting is O(k^2) but branch-free and vectorizable, and
/// measured faster than insertion sort or std::stable_sort from k = 5
/// up to k = 64, the most GSPs a coalition holds; larger instances get
/// std::stable_sort's O(k log k).
constexpr std::size_t kRankSortMax = 64;

}  // namespace

void stable_cost_order(const double* costs, std::size_t k,
                       std::uint32_t* order) {
  if (k > kRankSortMax) {
    std::iota(order, order + k, std::uint32_t{0});
    std::stable_sort(order, order + k, [costs](std::uint32_t a, std::uint32_t b) {
      return costs[a] < costs[b];
    });
    return;
  }
  // A GSP's stable position is the number of strictly cheaper GSPs plus
  // the number of equally cheap ones with a smaller index. The counts
  // are small integers, exact in doubles; counting in doubles lets the
  // compiler vectorize the k^2 comparisons.
  double cheaper[kRankSortMax];
  std::fill_n(cheaper, k, 0.0);
  for (std::size_t h = 0; h < k; ++h) {
    const double c = costs[h];
    for (std::size_t g = 0; g < k; ++g) cheaper[g] += c < costs[g] ? 1.0 : 0.0;
  }
  std::uint32_t placed[kRankSortMax] = {};
  for (std::size_t g = 0; g < k; ++g) {
    const auto rank = static_cast<std::size_t>(cheaper[g]);
    order[rank + placed[rank]++] = static_cast<std::uint32_t>(g);
  }
}

SolveKernel::SolveKernel(const AssignmentInstance& inst,
                         const CostOrderCache* cache,
                         const std::vector<std::size_t>* rows)
    : k_(inst.num_gsps()),
      n_(inst.num_tasks()),
      deadline_(inst.deadline),
      payment_(inst.payment),
      require_all_gsps_used_(inst.require_all_gsps_used) {
  inst.validate();
  detail::require(k_ <= std::numeric_limits<std::uint32_t>::max(),
                  "SolveKernel: too many GSPs");
  // Transpose task by task: the k source rows are read as k sequential
  // streams and each task's row is written once.
  cost_.resize(n_ * k_);
  time_.resize(n_ * k_);
  const double* cost_src = inst.cost.data().data();
  const double* time_src = inst.time.data().data();
  for (std::size_t t = 0; t < n_; ++t) {
    double* c = cost_.data() + t * k_;
    double* tm = time_.data() + t * k_;
    for (std::size_t g = 0; g < k_; ++g) {
      c[g] = cost_src[g * n_ + t];
      tm[g] = time_src[g * n_ + t];
    }
  }

  order_.resize(n_ * k_);
  reused_cost_orders_ = cache != nullptr && rows != nullptr &&
                        rows->size() == k_ && cache->num_tasks() == n_;
  for (std::size_t r = 0; reused_cost_orders_ && r < k_; ++r) {
    reused_cost_orders_ = (*rows)[r] < cache->num_gsps() &&
                          (r == 0 || (*rows)[r] > (*rows)[r - 1]);
  }
  if (reused_cost_orders_) {
    constexpr std::uint32_t kDropped = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> child_of(cache->num_gsps(), kDropped);
    for (std::size_t r = 0; r < k_; ++r) {
      child_of[(*rows)[r]] = static_cast<std::uint32_t>(r);
    }
    for (std::size_t t = 0; t < n_; ++t) {
      const std::uint32_t* full = cache->order(t);
      std::uint32_t* row = order_.data() + t * k_;
      std::size_t w = 0;
      for (std::size_t i = 0; i < cache->num_gsps() && w < k_; ++i) {
        const std::uint32_t child = child_of[full[i]];
        if (child != kDropped) row[w++] = child;
      }
    }
  } else {
    for (std::size_t t = 0; t < n_; ++t) {
      stable_cost_order(costs(t), k_, order_.data() + t * k_);
    }
  }

  min_cost_.resize(n_);
  std::vector<double> regret(n_);
  for (std::size_t t = 0; t < n_; ++t) {
    const double* c = costs(t);
    const std::uint32_t* o = cost_order(t);
    const double best = c[o[0]];
    const double second =
        k_ > 1 ? c[o[1]] : std::numeric_limits<double>::infinity();
    min_cost_[t] = best;
    regret[t] = std::isfinite(second) ? second - best : 0.0;
  }
  // Breaking high-regret decisions first tightens B&B bounds early, and
  // gives greedy construction its hardest choices while capacity lasts.
  regret_order_.resize(n_);
  std::iota(regret_order_.begin(), regret_order_.end(), std::size_t{0});
  std::stable_sort(regret_order_.begin(), regret_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return regret[a] > regret[b];
                   });
}

}  // namespace svo::ip
