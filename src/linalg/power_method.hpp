/// \file power_method.hpp
/// Power iteration for the dominant left eigenvector of a trust matrix
/// (paper Algorithm 2, eqs. (2)-(6)).
///
/// The paper iterates x <- A^T x until ||x^{q+1} - x^q|| < eps. For a
/// substochastic A (GSPs with no out-edges make rows sum to < 1) the raw
/// iteration decays to zero, so — as standard for the power method — we
/// L1-normalize each iterate; this changes only the scale of the fixed
/// point, never its direction, and the mechanism consumes only relative
/// reputations. See DESIGN.md §4.1.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace svo::linalg {

/// Options controlling the power iteration.
struct PowerMethodOptions {
  /// Convergence threshold on the L1 distance between successive
  /// (normalized) iterates. Paper calls this epsilon.
  double epsilon = 1e-9;
  /// Hard iteration cap; hitting it sets `converged = false` in the result.
  std::size_t max_iterations = 10'000;
  /// PageRank-style damping: iterate x <- (1-d) * A^T x + d * u where u is
  /// uniform. d = 0 reproduces the paper's bare iteration; the default
  /// 0.15 guarantees convergence on reducible/periodic trust graphs.
  double damping = 0.15;
  /// Number of pool threads to use for the mat-vec when the matrix is
  /// large; 1 = serial (default; trust graphs in the paper are 16x16).
  std::size_t threads = 1;

  /// Throws InvalidArgument unless epsilon is finite and > 0,
  /// max_iterations > 0, damping is finite in [0, 1) and threads >= 1 —
  /// the ReputationOptions/ServiceOptions validation precedent. Called by
  /// every engine consuming these options (dense, sparse, robust).
  void validate() const;
};

/// Result of a power iteration run.
struct PowerMethodResult {
  /// Dominant left eigenvector, L1-normalized to sum 1. All entries are
  /// >= 0 when the input matrix is non-negative.
  std::vector<double> eigenvector;
  /// Rayleigh-quotient estimate of the dominant eigenvalue of A^T
  /// (of the damped operator when damping > 0).
  double eigenvalue = 0.0;
  /// Iterations actually performed.
  std::size_t iterations = 0;
  /// Whether the epsilon criterion was met before the iteration cap.
  bool converged = false;
  /// Whether the run started from a caller-provided previous eigenvector
  /// instead of the uniform vector (sparse_power_method only).
  bool warm_started = false;
};

/// Compute the dominant *left* eigenvector of `a` (i.e. dominant right
/// eigenvector of A^T) by normalized power iteration.
///
/// Preconditions: `a` is square and non-negative; throws InvalidArgument
/// otherwise. Rows that are entirely zero ("dangling" GSPs that trust
/// nobody) are treated as uniform over all nodes, the PageRank convention.
/// An empty matrix yields an empty result with converged = true.
///
/// The reputation engine iterates with sparse_power_method; this dense
/// loop is the reference the tests check it against, bit for bit, and
/// what graph/centrality's eigenvector centrality runs.
[[nodiscard]] PowerMethodResult power_method(const Matrix& a,
                                             const PowerMethodOptions& opts = {});

}  // namespace svo::linalg
