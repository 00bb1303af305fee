#include "ip/solve_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

namespace svo::ip {

namespace {

/// Rank counting is O(k^2) but branch-free and vectorizable, and
/// measured faster than insertion sort or std::stable_sort from k = 5
/// up to k = 64, the most GSPs a coalition holds; larger instances get
/// std::stable_sort's O(k log k).
constexpr std::size_t kRankSortMax = 64;

/// Regret of a task with costs `c` over k GSPs and cost order `o`.
double regret_of(const double* c, const std::uint32_t* o, std::size_t k) {
  const double second =
      k > 1 ? c[o[1]] : std::numeric_limits<double>::infinity();
  return std::isfinite(second) ? second - c[o[0]] : 0.0;
}

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

SolveKernel::SolveKernel(const AssignmentInstance& inst)
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
  cost_ = std::make_unique_for_overwrite<double[]>(n_ * k_);
  time_ = std::make_unique_for_overwrite<double[]>(n_ * k_);
  order_ = std::make_unique_for_overwrite<std::uint32_t[]>(n_ * k_);
  min_cost_.resize(n_);
  regret_.resize(n_);
  const double* cost_src = inst.cost.data().data();
  const double* time_src = inst.time.data().data();
  for (std::size_t t = 0; t < n_; ++t) {
    double* c = cost_.get() + t * k_;
    double* tm = time_.get() + t * k_;
    for (std::size_t g = 0; g < k_; ++g) {
      c[g] = cost_src[g * n_ + t];
      tm[g] = time_src[g * n_ + t];
    }
    std::uint32_t* o = order_.get() + t * k_;
    stable_cost_order(c, k_, o);
    min_cost_[t] = c[o[0]];
    regret_[t] = regret_of(c, o, k_);
  }
  // Breaking high-regret decisions first tightens B&B bounds early, and
  // gives greedy construction its hardest choices while capacity lasts.
  regret_order_.resize(n_);
  std::iota(regret_order_.begin(), regret_order_.end(), std::size_t{0});
  std::stable_sort(regret_order_.begin(), regret_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return regret_[a] > regret_[b];
                   });
}

void SolveKernel::retarget(double deadline, double payment) {
  detail::require(deadline > 0.0, "SolveKernel: deadline must be > 0");
  detail::require(payment >= 0.0, "SolveKernel: payment must be >= 0");
  deadline_ = deadline;
  payment_ = payment;
}

SolveKernel::SolveKernel(const SolveKernel& parent, std::size_t removed_row)
    : k_(parent.k_ - 1),
      n_(parent.n_),
      deadline_(parent.deadline_),
      payment_(parent.payment_),
      require_all_gsps_used_(parent.require_all_gsps_used_),
      derived_(true) {
  detail::require(parent.k_ >= 2 && removed_row < parent.k_,
                  "SolveKernel: derivation needs a parent row and a survivor");
  const auto g = static_cast<std::uint32_t>(removed_row);
  min_cost_ = parent.min_cost_;
  regret_ = parent.regret_;
  // The child's rows, laid end to end, are the parent's with every
  // (k+1)-th entry from `g` on dropped: n + 1 contiguous runs.
  const auto drop_column = [&](const double* from) {
    auto to = std::make_unique_for_overwrite<double[]>(n_ * k_);
    std::copy(from, from + g, to.get());
    for (std::size_t t = 0; t < n_; ++t) {
      const std::size_t end = std::min((t + 1) * (k_ + 1) + g, n_ * (k_ + 1));
      std::copy(from + t * (k_ + 1) + g + 1, from + end, to.get() + t * k_ + g);
    }
    return to;
  };
  cost_ = drop_column(parent.cost_.get());
  time_ = drop_column(parent.time_.get());
  order_ = std::make_unique_for_overwrite<std::uint32_t[]>(n_ * k_);
  std::vector<std::size_t> moved;  // tasks whose regret changed, by index
  for (std::size_t t = 0; t < n_; ++t) {
    // Branch-free filter: once `g` has been passed, read one entry ahead.
    const std::uint32_t* po = parent.cost_order(t);
    std::uint32_t* o = order_.get() + t * k_;
    for (std::size_t i = 0, passed = 0; i < k_; ++i) {
      passed |= po[i] == g ? 1 : 0;
      o[i] = po[i + passed] - (po[i + passed] > g ? 1 : 0);
    }
    if (po[0] == g || po[1] == g) {
      min_cost_[t] = costs(t)[o[0]];
      regret_[t] = regret_of(costs(t), o, k_);
      if (regret_[t] != parent.regret_[t]) moved.push_back(t);
    }
  }
  // Tasks whose regret is unchanged keep their relative order; merge the
  // moved ones back in under the same total order (regret descending,
  // index ascending) that the stable sort of a built kernel produces.
  const auto before = [this](std::size_t a, std::size_t b) {
    return regret_[a] > regret_[b] || (regret_[a] == regret_[b] && a < b);
  };
  std::ranges::sort(moved, before);
  regret_order_.reserve(n_);
  std::ranges::copy_if(
      parent.regret_order_, std::back_inserter(regret_order_),
      [&](std::size_t t) { return regret_[t] == parent.regret_[t]; });
  const auto mid =
      regret_order_.insert(regret_order_.end(), moved.begin(), moved.end());
  std::inplace_merge(regret_order_.begin(), mid, regret_order_.end(), before);
}

double assignment_cost(const SolveKernel& kernel, const Assignment& a) {
  if (a.size() != kernel.num_tasks()) {
    throw DimensionMismatch("assignment_cost: assignment arity != num_tasks");
  }
  double acc = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    detail::require(a[t] < kernel.num_gsps(),
                    "assignment_cost: GSP index out of range");
    acc += kernel.costs(t)[a[t]];
  }
  return acc;
}

bool feasible(const SolveKernel& kernel, const Assignment& a) {
  constexpr double tol = 1e-9;
  const std::size_t k = kernel.num_gsps();
  if (a.size() != kernel.num_tasks()) return false;
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> tasks_per_gsp(k, 0);
  double total_cost = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t] >= k) return false;
    load[a[t]] += kernel.times(t)[a[t]];
    ++tasks_per_gsp[a[t]];
    total_cost += kernel.costs(t)[a[t]];
  }
  for (std::size_t g = 0; g < k; ++g) {
    if (load[g] > kernel.deadline() + tol) return false;
    if (kernel.require_all_gsps_used() && tasks_per_gsp[g] == 0) return false;
  }
  return !(total_cost > kernel.payment() + tol);
}

bool capacity_infeasible(const SolveKernel& kernel, double tolerance) {
  const double cap = kernel.deadline() + tolerance;
  if (!std::isfinite(cap)) return false;
  const std::size_t k = kernel.num_gsps();
  const std::size_t n = kernel.num_tasks();
  // Pass 1: each GSP's column sum, and whether every task fits somewhere.
  std::vector<double> weight(k, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    const double* times = kernel.times(t);
    bool fits = false;
    for (std::size_t g = 0; g < k; ++g) {
      weight[g] += times[g];
      fits |= times[g] <= cap;
    }
    if (!fits) return true;
  }
  double capacity = 0.0;
  for (double& w : weight) {
    if (!std::isfinite(w)) return false;
    w = 1.0 / w;
    capacity += w;
  }
  capacity *= cap * (1.0 + 1e-9);
  // Pass 2: each task's least weighted time over the GSPs it fits on.
  double need = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double* times = kernel.times(t);
    double least = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < k; ++g) {
      if (times[g] <= cap) least = std::min(least, weight[g] * times[g]);
    }
    need += least;
  }
  return std::isfinite(need) && need > capacity;
}

}  // namespace svo::ip
