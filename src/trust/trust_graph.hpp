/// \file trust_graph.hpp
/// The paper's trust model (Section II-B): a weighted digraph (G, E)
/// whose edge weight u_ij is the direct trust G_i places in G_j, plus the
/// row normalization of eq. (1):
///
///   a_ij = u_ij / sum_{k in N_i} u_ik,
///
/// applied within whatever GSP subset (coalition) is being scored —
/// Algorithm 2 operates on the induced subgraph (C, E_C).
///
/// Beyond the 16-GSP paper setup, the graph carries the bookkeeping the
/// incremental reputation engine needs at 100k-1M participants
/// (DESIGN.md §4i): a process-unique identity (`uid`), a mutation
/// counter (`version`), a bounded log of recently changed edges
/// (`edges_changed_since`), and the CSR exports the engine iterates on,
/// whose values are bit-equal to the paper's dense matrices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "util/rng.hpp"

namespace svo::trust {

/// Directed trust relationships among m GSPs.
class TrustGraph {
 public:
  /// m GSPs, no trust edges yet.
  explicit TrustGraph(std::size_t m) : graph_(m) {}

  /// Adopt an existing digraph (e.g. an Erdős–Rényi draw) as trust.
  /// Throws InvalidArgument, naming the edge, on a self-loop or a weight
  /// that is not finite: like set_trust, a TrustGraph only ever holds
  /// finite trust between distinct GSPs.
  explicit TrustGraph(graph::Digraph g);

  /// Copies are *new* graphs: same content and version, fresh `uid()`,
  /// so a ReputationCache entry keyed to the original never matches the
  /// copy (the two may diverge independently afterwards).
  TrustGraph(const TrustGraph& other);
  TrustGraph& operator=(const TrustGraph& other);
  /// Moves steal the identity (content travels with the uid); the
  /// moved-from graph is reset empty with a fresh uid.
  TrustGraph(TrustGraph&& other) noexcept;
  TrustGraph& operator=(TrustGraph&& other) noexcept;
  ~TrustGraph() = default;

  /// Number of GSPs.
  [[nodiscard]] std::size_t size() const noexcept {
    return graph_.vertex_count();
  }

  /// Process-unique identity of this graph object. Stable across
  /// mutations; changes only via move (stolen) — the half of a
  /// ReputationCache key that says "same graph object".
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  /// Mutation counter: bumped once per *effective* edge change
  /// (set_trust to the current value is a no-op). The other half of the
  /// cache key: same (uid, version) implies identical edge content.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Edges changed after `since_version` (each as (truster, trustee);
  /// duplicates possible when an edge changed repeatedly). Returns
  /// nullopt when the bounded log no longer reaches back that far — the
  /// caller must treat this as "everything may have changed" and
  /// cold-start. A `since_version` at or past `version()` yields an
  /// empty list.
  [[nodiscard]] std::optional<std::vector<std::pair<std::size_t, std::size_t>>>
  edges_changed_since(std::uint64_t since_version) const;

  /// Set direct trust u_ij (>= 0; 0 removes the edge — the paper equates
  /// u_ij = 0 with complete distrust / no relationship).
  void set_trust(std::size_t i, std::size_t j, double u);

  /// Direct trust u_ij; 0 when no edge exists.
  [[nodiscard]] double trust(std::size_t i, std::size_t j) const;

  /// Underlying digraph (read-only).
  [[nodiscard]] const graph::Digraph& graph() const noexcept { return graph_; }

  /// Normalized trust matrix A over all GSPs (eq. (1)), in the paper's
  /// dense layout. The reputation engine iterates on normalized_sparse();
  /// this is the reference the tests check that export against. Rows of
  /// GSPs with no outgoing trust are all-zero ("dangling"; the power
  /// iteration patches them to uniform).
  [[nodiscard]] linalg::Matrix normalized_matrix() const;

  /// Normalized trust matrix A_C of the subgraph induced by `members`
  /// (original GSP indices, strictly increasing). Normalization happens
  /// *inside* the coalition: opinions of outsiders are excluded, exactly
  /// as TVOF requires (Section III-A). Dense reference for
  /// normalized_sparse(members).
  [[nodiscard]] linalg::Matrix normalized_matrix(
      const std::vector<std::size_t>& members) const;

  /// CSR twin of normalized_matrix(): every stored value is bit-equal to
  /// the corresponding dense entry (row sums are accumulated over the
  /// column-sorted nonzeros, which matches linalg::normalize_l1's
  /// ascending sum exactly — zeros only ever add +0.0). O(E log deg).
  [[nodiscard]] linalg::SparseMatrix normalized_sparse() const;

  /// CSR twin of normalized_matrix(members); same bit-equality.
  [[nodiscard]] linalg::SparseMatrix normalized_sparse(
      const std::vector<std::size_t>& members) const;

  /// Selected rows of normalized_sparse(): row k of the result
  /// (rows.size() x size()) is GSP rows[k]'s normalized out-trust, built
  /// by the same routine, so bit-equal to that row of the full export.
  /// O(sum of their degrees) — what ReputationCache re-weights its kept
  /// operator with (DESIGN.md §4i).
  [[nodiscard]] linalg::SparseMatrix normalized_rows(
      std::span<const std::size_t> rows) const;

  /// Raw (unnormalized) coalition trust u_ij as CSR — the robust layer's
  /// credibility/consensus passes consume this instead of O(c^2)
  /// dense lookups. Pass all GSPs via the zero-argument overload.
  [[nodiscard]] linalg::SparseMatrix raw_sparse() const;
  [[nodiscard]] linalg::SparseMatrix raw_sparse(
      const std::vector<std::size_t>& members) const;

  /// Interaction-driven trust update (extension beyond the paper's static
  /// snapshot; supports dynamic simulations): exponential moving average
  ///   u_ij <- (1 - rate) * u_ij + rate * outcome,
  /// where outcome in [0, 1] scores the trustee's delivered service.
  void record_interaction(std::size_t truster, std::size_t trustee,
                          double outcome, double rate = 0.3);

 private:
  using RowScratch = std::vector<std::pair<std::size_t, double>>;

  [[nodiscard]] static std::uint64_t next_uid() noexcept;
  void note_change(std::size_t i, std::size_t j);
  /// The one row routine behind every CSR export: appends GSP gi's
  /// out-trust as `out`'s next row — columns are positions in `members`
  /// (all GSPs when null), outsiders skipped, values row-normalized
  /// (eq. (1)) when `normalized`.
  void append_row(linalg::SparseMatrix::RowBuilder& out, std::size_t gi,
                  const std::vector<std::size_t>* members, bool normalized,
                  RowScratch& row) const;
  /// Shared CSR builder; normalizes rows when `normalized`.
  [[nodiscard]] linalg::SparseMatrix build_sparse(
      const std::vector<std::size_t>* members, bool normalized) const;

  /// Changed-edge log capacity; exceeding it drops the oldest half of
  /// the window (callers asking past the window cold-start anyway).
  static constexpr std::size_t kDeltaLogCapacity = 1024;

  graph::Digraph graph_;
  std::uint64_t uid_ = next_uid();
  std::uint64_t version_ = 0;
  /// Version number of the oldest logged change minus one: log entry k
  /// was recorded by the mutation that produced version delta_base_+k+1.
  std::uint64_t delta_base_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> delta_log_;
};

/// Convenience: random trust graph per the paper's setup — Erdős–Rényi
/// G(m, p) with positive uniform weights.
[[nodiscard]] TrustGraph random_trust_graph(std::size_t m, double p,
                                            util::Xoshiro256& rng);

/// Scale-regime generator: m GSPs where every GSP rates `degree` targets
/// drawn uniformly (duplicates collapse, self-ratings skipped), weights
/// uniform in (0, 1]. O(m * degree) — usable at m = 1M where the
/// G(m, p) generator's O(m^2) coin flips are not.
[[nodiscard]] TrustGraph random_sparse_trust_graph(std::size_t m,
                                                   std::size_t degree,
                                                   util::Xoshiro256& rng);

}  // namespace svo::trust
