/// \file propagation.hpp
/// Path-based trust propagation — the alternative reputation machinery
/// the paper surveys (Hang et al. [1]): when G_i has no direct trust
/// edge to G_j, infer one from trust paths using three operators:
///
///   concatenation: trust along a path (product or minimum of edges);
///   aggregation:   combining parallel paths (maximum or probabilistic
///                  co-occurrence 1 - prod(1 - t_p));
///   selection:     choosing which paths participate (best path only, or
///                  all simple paths up to a hop limit).
///
/// The paper's own mechanism uses the power method instead; this module
/// exists for the reputation-machinery ablation and for applications
/// that need pairwise (not global) trust estimates.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust {

/// How trust composes along one path.
enum class Concatenation {
  Product,  ///< multiplicative attenuation (requires weights in [0,1])
  Minimum,  ///< weakest-link semantics
};

/// How parallel paths combine.
enum class Aggregation {
  BestPath,       ///< the single strongest path (selection operator)
  ProbabilisticOr ///< 1 - prod(1 - t_p) over discovered paths
};

/// Options for propagation queries.
struct PropagationOptions {
  Concatenation concatenation = Concatenation::Product;
  Aggregation aggregation = Aggregation::BestPath;
  /// Maximum path length in hops (>= 1). Paths longer than this are not
  /// considered — trust transitivity weakens quickly with distance.
  std::size_t max_hops = 4;
  /// Edge weights are clamped into [0, 1] before composing (direct trust
  /// in this codebase is unbounded; propagation semantics need [0,1]).
  bool clamp_to_unit = true;
};

/// Inferred trust from `source` to `target`. Returns nullopt when no
/// path of at most max_hops exists. A direct edge participates as the
/// 1-hop path and competes with (or, under ProbabilisticOr, combines
/// with) indirect evidence. Throws InvalidArgument on out-of-range
/// vertices or source == target.
[[nodiscard]] std::optional<double> propagate_trust(
    const TrustGraph& g, std::size_t source, std::size_t target,
    const PropagationOptions& opts = {});

/// Dense matrix of direct-or-propagated trust for every ordered pair
/// (diagonal is zero). Entry (i, j) is 0 when j is unreachable from i
/// within the hop limit.
[[nodiscard]] linalg::Matrix propagated_matrix(
    const TrustGraph& g, const PropagationOptions& opts = {});

}  // namespace svo::trust
