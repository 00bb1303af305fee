/// \file robust.hpp
/// Robust reputation aggregation — defenses that make the eigenvector
/// pipeline of Algorithm 2 survive the attack families of
/// trust/attack.hpp. Three independent, composable layers:
///
///  1. Rater-credibility weighting: each rater's influence in the power
///     iteration is scaled by exp(-strength * deviation), where
///     deviation is the mean absolute gap between the rater's (clamped)
///     reports and the per-trustee median consensus. Slanderers and
///     ballot-stuffers systematically disagree with the honest majority
///     and lose their voice.
///  2. Outlier-resistant trust-row aggregation: the per-trustee update
///     x_j <- sum_i w_i a_ij x_i is replaced by a trimmed or
///     median-of-means sum of the contributions, bounding what any small
///     coalition of raters can add to one trustee's score.
///  3. Re-entry quarantine: identities flagged as fresh (whitewashing
///     re-entries, sybils) have both their rater weight and their final
///     score multiplied by a prior < 1 until they age out.
///
/// All defenses sit behind `RobustOptions` inside `ReputationOptions`;
/// with `enabled == false` the engine runs the untouched literal
/// pipeline, bit for bit (tests/trust/robust_test.cpp enforces this).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/power_method.hpp"
#include "linalg/sparse.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust {

/// How per-trustee incoming contributions are combined in the robust
/// power iteration.
enum class RowAggregation {
  /// Plain sum — the literal operator (useful to isolate the
  /// credibility/quarantine layers in ablations).
  Sum,
  /// linalg::trimmed_sum over the contributions.
  TrimmedMean,
  /// linalg::median_of_means_sum over the contributions.
  MedianOfMeans,
};

/// Defense configuration. Defaults are OFF: a default-constructed
/// ReputationOptions reproduces the paper's pipeline bit-identically.
struct RobustOptions {
  /// Master switch; false short-circuits to the literal engine.
  bool enabled = false;
  /// Layer 1: rater-credibility weighting.
  bool credibility_weighting = true;
  /// Credibility decay rate: w = exp(-strength * mean deviation).
  double credibility_strength = 6.0;
  /// Layer 2: robust per-trustee aggregation.
  RowAggregation aggregation = RowAggregation::TrimmedMean;
  /// Fraction trimmed per side (TrimmedMean), in [0, 0.5).
  double trim_fraction = 0.2;
  /// Bucket count (MedianOfMeans), >= 1.
  std::size_t mom_buckets = 3;
  /// Layer 3: multiplier in (0, 1] applied to fresh identities' rater
  /// weight and final score (1 = quarantine off).
  double quarantine_prior = 0.15;
  /// Fresh identities (GLOBAL GSP ids; coalition computations remap
  /// internally). Typically AttackInjector::fresh_identities() in
  /// simulations; in deployments, the identity ledger's recent joiners.
  std::vector<std::size_t> fresh;

  /// Throws InvalidArgument on out-of-range knobs.
  void validate() const;
};

/// Median consensus opinion about each of `members` (original GSP ids,
/// strictly increasing): median over the *clamped-to-[0,1]* direct
/// reports u_ij of the other members. Entries with no incoming report
/// are NaN ("no consensus"); callers must skip them. Dense reference:
/// the engine runs the CSR overload below, and the tests check it
/// against this one.
[[nodiscard]] std::vector<double> consensus_opinions(
    const TrustGraph& g, const std::vector<std::size_t>& members);

/// Credibility weight per member-as-rater in (0, 1]:
/// exp(-strength * mean_j |clamp(u_ij) - consensus_j|) over the rater's
/// in-coalition reports with a defined consensus; raters with no such
/// reports keep weight 1. Dense reference for the CSR overload below.
[[nodiscard]] std::vector<double> rater_credibility(
    const TrustGraph& g, const std::vector<std::size_t>& members,
    double strength);

/// Power iteration with per-rater weights and robust per-trustee
/// aggregation. Mirrors linalg::power_method exactly (uniform start,
/// dangling rows spread uniformly, damping, L1-normalized iterates,
/// epsilon on successive-iterate L1 distance); with unit weights and
/// RowAggregation::Sum it computes the same fixed point. `weights` must
/// be positive and <= 1, one per row of `a`. Dense reference for the CSR
/// overload below, which is what the engine runs.
[[nodiscard]] linalg::PowerMethodResult robust_power_method(
    const linalg::Matrix& a, const std::vector<double>& weights,
    const linalg::PowerMethodOptions& power, RowAggregation aggregation,
    double trim_fraction, std::size_t mom_buckets);

/// CSR form of consensus_opinions: per-trustee median over the clamped
/// stored reports of `raw` = TrustGraph::raw_sparse(members).
/// Bit-identical to the dense reference on the same coalition — stored
/// entries are exactly the u > 0 reports, gathered in the same
/// rater-ascending order (DESIGN.md §4i).
[[nodiscard]] std::vector<double> consensus_opinions(
    const linalg::SparseMatrix& raw);

/// CSR form of rater_credibility; same bit-identity contract.
[[nodiscard]] std::vector<double> rater_credibility(
    const linalg::SparseMatrix& raw, double strength);

/// CSR form of robust_power_method over the normalized coalition CSR.
/// Contributions for trustee j are gathered from the transposed matrix's
/// row j in rater-ascending order — the dense loop's exact order — and
/// zero-valued contributions (x_i == 0) are *kept*, because they
/// participate in the trimmed / median-of-means order statistics.
/// Dangling raters hold no stored entries, so they are excluded
/// structurally, as the dense loop excludes them explicitly.
[[nodiscard]] linalg::PowerMethodResult robust_power_method(
    const linalg::SparseMatrix& a, const std::vector<double>& weights,
    const linalg::PowerMethodOptions& power, RowAggregation aggregation,
    double trim_fraction, std::size_t mom_buckets);

/// Normalized Kendall-tau distance between the rankings induced by two
/// equal-length score vectors: the fraction of strictly ordered pairs in
/// `reference` whose order is inverted in `other`, in [0, 1]. The
/// benchmark's "rank corruption of the reputation vector" metric
/// (0 = same ranking of every separated pair, 1 = fully reversed).
[[nodiscard]] double rank_corruption(const std::vector<double>& reference,
                                     const std::vector<double>& other);

}  // namespace svo::trust
