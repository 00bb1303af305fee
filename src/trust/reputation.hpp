/// \file reputation.hpp
/// Global reputation of GSPs — paper Algorithm 2 / eqs. (2)-(7): the
/// dominant left eigenvector of the (coalition-restricted) normalized
/// trust matrix, found by power iteration; plus the average global
/// reputation of eq. (7) used as the VO-level metric.
///
/// Every compute iterates on CSR (DESIGN.md §4i), whatever the coalition
/// size; the paper's dense k x k loop survives only as the reference the
/// tests check the engine against, bit for bit. An optional
/// ReputationCache makes repeated full-graph computes incremental:
/// unchanged graphs return the cached result outright, re-weighted rows
/// are patched into the kept iteration operator instead of rebuilding
/// it, and small edge deltas warm-start the iteration from the previous
/// eigenvector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/power_method.hpp"
#include "linalg/sparse.hpp"
#include "trust/robust.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust {

/// Result of one reputation computation.
struct ReputationResult {
  /// Reputation score per coalition member, aligned with the member list
  /// passed in (or with GSP ids when scoring all GSPs). L1-normalized.
  std::vector<double> scores;
  /// Average global reputation of the coalition, eq. (7). Because scores
  /// sum to 1, this equals 1/|C| — the *interesting* comparative metric
  /// across coalitions of different sizes (paper Figs. 3, 5-8) divides
  /// mass among fewer, better-connected members as TVOF prunes.
  double average = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Incremental state of full-graph standard (non-robust) computes: the
/// last result and the operator it was iterated on (the transposed,
/// row-normalized CSR plus its dangling rows, linalg::GatherOperator),
/// both at the graph's (TrustGraph::uid, TrustGraph::version). Regimes:
///
///  - exact hit — same uid, version and power options: the cached result
///    is returned without touching the matrix. Bit-identical to
///    recomputing, because the compute is deterministic.
///  - patch — same uid, the graph's change log still reaches back to the
///    kept version, and every logged change re-weights an existing edge:
///    the changed rows are re-normalized and written in place at their
///    transposed positions, O(changed rows) instead of O(nnz). The rows
///    come from the routine normalized_sparse() uses, so the operator is
///    bit-equal to a rebuilt one.
///  - rebuild — a different uid, a lost log window, or an added or
///    removed edge (a row becoming or ceasing to be dangling included):
///    the operator is prepared afresh from normalized_sparse(). Decided
///    before anything is written, so no half-patched operator survives.
///
/// The operator depends on graph content alone, so a power-options
/// change still patches. Unless the result is an exact hit, the
/// iteration then starts
///
///  - warm — same uid and power options, converged memo, and at most
///    ReputationOptions::warm_max_delta logged edge changes: from the
///    cached eigenvector. Converges to the same fixed point within
///    epsilon in far fewer iterations, but the iterate path differs from
///    a cold start: warm results match cold ones only up to the
///    convergence tolerance (DESIGN.md §4i);
///  - cold — otherwise, from the uniform vector.
///
/// Holds O(nnz) memory for the operator. NOT thread-safe: one cache per
/// computing thread (svc::FormationService rejects a shared cache at
/// construction for exactly this reason). Ignored by
/// coalition-restricted and robust computes.
class ReputationCache {
 public:
  /// Observability counters, cumulative since construction/clear().
  struct Stats {
    std::uint64_t exact_hits = 0;
    std::uint64_t warm_starts = 0;
    std::uint64_t cold_starts = 0;
    /// Sum over warm starts of (iterations of the last cold solve on
    /// this graph - iterations actually run); the headline number
    /// bench_trust_scale gates on.
    std::uint64_t iterations_saved = 0;
    /// Computes that kept the operator, re-weighting its changed rows
    /// (none when only the power options changed).
    std::uint64_t operator_patches = 0;
    /// Computes that prepared the operator afresh.
    std::uint64_t operator_builds = 0;
  };

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Drop the memo and the operator, and zero the stats.
  void clear() noexcept {
    has_entry_ = false;
    operator_ = linalg::GatherOperator();
    stats_ = Stats{};
  }

 private:
  friend class ReputationEngine;

  bool has_entry_ = false;
  std::uint64_t graph_uid_ = 0;
  std::uint64_t graph_version_ = 0;
  /// Options fingerprint: a memo computed under different power options
  /// is neither returned nor used as a warm seed.
  linalg::PowerMethodOptions power_;
  ReputationResult result_;
  /// Iterations of the most recent cold solve (warm-start savings base).
  std::size_t cold_iterations_ = 0;
  linalg::GatherOperator operator_;
  Stats stats_;
};

/// Options for the engine. Defaults: epsilon 1e-9, damping 0.15
/// (DESIGN.md §4.1 — set damping to 0 for the paper's literal iteration).
/// `robust` defaults to disabled, in which case the engine runs the
/// literal pipeline untouched — bit-identical scores to a build without
/// the defense layer (DESIGN.md §4d).
struct ReputationOptions {
  linalg::PowerMethodOptions power;
  RobustOptions robust;
  /// Optional incremental cache for full-graph standard computes; the
  /// caller owns it and must not share it across threads. Must be null
  /// when `robust.enabled` (the robust pipeline's quarantine list varies
  /// per round, so memoization would be incorrect).
  ReputationCache* cache = nullptr;
  /// Warm-start only when at most this many edge changes separate the
  /// cached eigenvector from the current graph; larger deltas cold-start.
  std::size_t warm_max_delta = 64;

  /// Throws InvalidArgument on invalid power/robust knobs or on
  /// `cache != nullptr && robust.enabled`.
  void validate() const;
};

/// Computes global reputation vectors for GSP coalitions.
class ReputationEngine {
 public:
  explicit ReputationEngine(ReputationOptions opts = {})
      : opts_(std::move(opts)) {}

  /// Score every GSP in the trust graph.
  [[nodiscard]] ReputationResult compute(const TrustGraph& g) const;

  /// Score the coalition `members` (strictly increasing original GSP
  /// indices) on its induced subgraph. Empty coalition -> empty result.
  [[nodiscard]] ReputationResult compute(
      const TrustGraph& g, const std::vector<std::size_t>& members) const;

  [[nodiscard]] const ReputationOptions& options() const noexcept {
    return opts_;
  }

 private:
  /// Standard solve of a normalized CSR (no cache).
  [[nodiscard]] ReputationResult from_sparse(const linalg::SparseMatrix& a) const;
  /// Standard full-graph solve with cache/warm-start handling.
  [[nodiscard]] ReputationResult full_sparse(const TrustGraph& g) const;
  /// Defended pipeline (opts_.robust.enabled): credibility-weighted,
  /// outlier-resistant power iteration plus quarantine of fresh
  /// identities. `members` are original GSP ids, strictly increasing.
  [[nodiscard]] ReputationResult compute_robust(
      const TrustGraph& g, const std::vector<std::size_t>& members) const;

  ReputationOptions opts_;
};

/// Average global reputation (eq. (7)) of an explicit score vector.
[[nodiscard]] double average_reputation(const std::vector<double>& scores);

}  // namespace svo::trust
