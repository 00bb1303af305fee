/// \file hierarchy.hpp
/// Hierarchical reputation after GridEigenTrust (von Laszewski et al.
/// [11], Alunkal et al. [12], Section I-A): each organization (GSP)
/// contains entities — resources, services, users — each carrying its
/// own reputation; the organization's reputation aggregates its
/// entities, and a VO's reputation aggregates its organizations. The
/// paper works directly at GSP level; this module supplies the
/// resource-level substrate those systems used, so GSP-level trust can
/// be *derived* from per-resource observations instead of asserted.
#pragma once

#include <string>
#include <vector>

#include "game/coalition.hpp"
#include "trust/reputation.hpp"
#include "util/error.hpp"

namespace svo::trust {

/// One entity (resource/service) inside an organization.
struct Entity {
  std::string name;
  /// Reputation score in [0, 1].
  double reputation = 0.5;
  /// Aggregation weight (> 0), e.g. the resource's capacity share.
  double weight = 1.0;
};

/// How entity scores aggregate into their organization's score.
enum class HierarchyAggregation {
  WeightedMean,  ///< sum(w_i r_i) / sum(w_i) — GridEigenTrust's default
  Minimum,       ///< weakest resource dominates (conservative)
  Geometric,     ///< weighted geometric mean (penalizes low outliers)
};

/// A two-level organization -> entity hierarchy over m organizations
/// (the GSPs of the VO-formation game).
class ReputationHierarchy {
 public:
  explicit ReputationHierarchy(
      std::size_t organizations,
      HierarchyAggregation aggregation = HierarchyAggregation::WeightedMean);

  [[nodiscard]] std::size_t organizations() const noexcept {
    return entities_.size();
  }

  /// Add an entity to organization `org`; returns its index within org.
  /// Throws InvalidArgument on bad org, reputation outside [0,1], or
  /// non-positive weight.
  std::size_t add_entity(std::size_t org, Entity entity);

  [[nodiscard]] const std::vector<Entity>& entities(std::size_t org) const;

  /// Update one entity's reputation from an observed outcome in [0, 1]
  /// (EWMA with `rate`), the per-resource analogue of
  /// TrustGraph::record_interaction.
  void record_entity_outcome(std::size_t org, std::size_t entity,
                             double outcome, double rate = 0.3);

  /// Organization score: aggregation of its entities. Organizations with
  /// no entities score 0 (nothing to vouch for them).
  [[nodiscard]] double organization_reputation(std::size_t org) const;

  /// All organization scores.
  [[nodiscard]] std::vector<double> organization_reputations() const;

  /// VO score: the same aggregation applied over the member
  /// organizations' scores, each weighted by its total entity weight
  /// (bigger providers count more) — GridEigenTrust's VO level.
  [[nodiscard]] double vo_reputation(game::Coalition vo) const;

 private:
  [[nodiscard]] double aggregate(const std::vector<double>& scores,
                                 const std::vector<double>& weights) const;

  std::vector<std::vector<Entity>> entities_;
  HierarchyAggregation aggregation_;
};

/// Result of a clustered (FRTRUST-style) reputation computation.
struct ClusteredResult {
  /// Final per-GSP score: cluster_scores[assignment[i]] * within-cluster
  /// score of i, L1-renormalized over all GSPs (all-zero stays all-zero).
  std::vector<double> scores;
  /// Inter-cluster eigenvector (one entry per cluster; empty clusters
  /// participate as dangling nodes).
  std::vector<double> cluster_scores;
  /// Number of clusters (max assignment id + 1).
  std::size_t clusters = 0;
  /// Total power iterations across every per-cluster solve plus the
  /// inter-cluster rollup.
  std::size_t iterations = 0;
  /// True iff every sub-solve converged.
  bool converged = true;
};

/// Two-level clustered aggregation in the FRTRUST mold, the divide-and-
/// conquer path for very large populations (DESIGN.md §4i): GSPs are
/// partitioned by `assignment` (cluster id per GSP, ids in
/// [0, max_id]); each non-empty cluster is scored on its induced
/// subgraph, then a cluster-level TrustGraph — edge (a, b) summing all trust from
/// cluster a's members to cluster b's — is solved the same way and the
/// two levels multiply. Empty clusters are legal and score 0; a
/// single-GSP cluster scores its lone member 1 within the cluster;
/// disconnected clusters fall back to the dangling-node convention.
///
/// `opts.cache` must be null (the intermediate graphs are rebuilt per
/// call, so memoization can never hit; rejecting beats silently
/// thrashing the caller's cache). Throws InvalidArgument on that, on an
/// assignment size mismatch, or on invalid options.
[[nodiscard]] ClusteredResult clustered_reputation(
    const TrustGraph& g, const std::vector<std::size_t>& assignment,
    const ReputationOptions& opts = {});

}  // namespace svo::trust
