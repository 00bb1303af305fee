#include "trust/propagation.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace svo::trust {

namespace {

double clamp_weight(double w, bool clamp) {
  return clamp ? std::clamp(w, 0.0, 1.0) : w;
}

double compose(double path_trust, double edge, Concatenation op) {
  return op == Concatenation::Product ? path_trust * edge
                                      : std::min(path_trust, edge);
}

/// Hop-bounded best-path DP: best[v] after h hops from source, composed
/// with `op`, aggregated with max over all hop counts 1..max_hops.
std::vector<double> best_path_from(const TrustGraph& g, std::size_t source,
                                   const PropagationOptions& opts) {
  const std::size_t n = g.size();
  constexpr double kNone = -1.0;
  std::vector<double> overall(n, kNone);
  std::vector<double> frontier(n, kNone);
  frontier[source] = std::numeric_limits<double>::infinity();  // identity
  // For Product, the identity element is 1; infinity works for Minimum.
  if (opts.concatenation == Concatenation::Product) frontier[source] = 1.0;

  std::vector<double> next(n, kNone);
  for (std::size_t hop = 0; hop < opts.max_hops; ++hop) {
    std::fill(next.begin(), next.end(), kNone);
    bool any = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (frontier[u] == kNone) continue;
      for (const auto& e : g.graph().out_edges(u)) {
        if (e.weight <= 0.0) continue;
        const double w = clamp_weight(e.weight, opts.clamp_to_unit);
        const double t = compose(frontier[u], w, opts.concatenation);
        if (t > next[e.to]) {
          next[e.to] = t;
          any = true;
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (v != source && next[v] > overall[v]) overall[v] = next[v];
    }
    frontier.swap(next);
    if (!any) break;
  }
  return overall;
}

/// DFS over simple paths accumulating the probabilistic-OR complement.
void dfs_paths(const TrustGraph& g, std::size_t current, std::size_t target,
               double path_trust, std::size_t hops_left,
               std::vector<bool>& on_path, double& complement,
               const PropagationOptions& opts) {
  for (const auto& e : g.graph().out_edges(current)) {
    if (e.weight <= 0.0) continue;
    const double w = clamp_weight(e.weight, opts.clamp_to_unit);
    const double t = compose(path_trust, w, opts.concatenation);
    if (e.to == target) {
      complement *= 1.0 - std::clamp(t, 0.0, 1.0);
      continue;
    }
    if (hops_left > 1 && !on_path[e.to]) {
      on_path[e.to] = true;
      dfs_paths(g, e.to, target, t, hops_left - 1, on_path, complement, opts);
      on_path[e.to] = false;
    }
  }
}

}  // namespace

std::optional<double> propagate_trust(const TrustGraph& g, std::size_t source,
                                      std::size_t target,
                                      const PropagationOptions& opts) {
  detail::require(source < g.size() && target < g.size(),
                  "propagate_trust: vertex out of range");
  detail::require(source != target, "propagate_trust: source == target");
  detail::require(opts.max_hops >= 1, "propagate_trust: max_hops must be >= 1");

  if (opts.aggregation == Aggregation::BestPath) {
    const std::vector<double> best = best_path_from(g, source, opts);
    if (best[target] < 0.0) return std::nullopt;
    return best[target];
  }
  // ProbabilisticOr over all simple paths up to the hop limit.
  double complement = 1.0;
  std::vector<bool> on_path(g.size(), false);
  on_path[source] = true;
  const double identity =
      opts.concatenation == Concatenation::Product
          ? 1.0
          : std::numeric_limits<double>::infinity();
  dfs_paths(g, source, target, identity, opts.max_hops, on_path, complement,
            opts);
  if (complement == 1.0) return std::nullopt;  // no path contributed
  return 1.0 - complement;
}

linalg::Matrix propagated_matrix(const TrustGraph& g,
                                 const PropagationOptions& opts) {
  const std::size_t n = g.size();
  linalg::Matrix m(n, n, 0.0);
  if (opts.aggregation == Aggregation::BestPath) {
    for (std::size_t s = 0; s < n; ++s) {
      const std::vector<double> best = best_path_from(g, s, opts);
      for (std::size_t t = 0; t < n; ++t) {
        if (t != s && best[t] > 0.0) m(s, t) = best[t];
      }
    }
    return m;
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto inferred = propagate_trust(g, s, t, opts);
      if (inferred) m(s, t) = *inferred;
    }
  }
  return m;
}

}  // namespace svo::trust
