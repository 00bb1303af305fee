#include "trust/trust_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "graph/generators.hpp"

namespace svo::trust {

std::uint64_t TrustGraph::next_uid() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

TrustGraph::TrustGraph(graph::Digraph g) : graph_(std::move(g)) {
  for (std::size_t i = 0; i < graph_.vertex_count(); ++i) {
    for (const graph::Edge& e : graph_.out_edges(i)) {
      const char* problem = e.to == i ? "is self-trust, which is not modeled"
                            : std::isfinite(e.weight) ? nullptr
                                                      : "must be finite";
      if (problem != nullptr) {
        throw InvalidArgument("TrustGraph: trust on edge (" +
                              std::to_string(i) + ", " + std::to_string(e.to) +
                              ") " + problem);
      }
    }
  }
}

TrustGraph::TrustGraph(const TrustGraph& other)
    : graph_(other.graph_),
      version_(other.version_),
      delta_base_(other.delta_base_),
      delta_log_(other.delta_log_) {}

TrustGraph& TrustGraph::operator=(const TrustGraph& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  uid_ = next_uid();  // content changed wholesale: never match old entries
  version_ = other.version_;
  delta_base_ = other.delta_base_;
  delta_log_ = other.delta_log_;
  return *this;
}

TrustGraph::TrustGraph(TrustGraph&& other) noexcept
    : graph_(std::move(other.graph_)),
      uid_(other.uid_),
      version_(other.version_),
      delta_base_(other.delta_base_),
      delta_log_(std::move(other.delta_log_)) {
  other.graph_ = graph::Digraph(0);
  other.uid_ = next_uid();
  other.version_ = 0;
  other.delta_base_ = 0;
  other.delta_log_.clear();
}

TrustGraph& TrustGraph::operator=(TrustGraph&& other) noexcept {
  if (this == &other) return *this;
  graph_ = std::move(other.graph_);
  uid_ = other.uid_;
  version_ = other.version_;
  delta_base_ = other.delta_base_;
  delta_log_ = std::move(other.delta_log_);
  other.graph_ = graph::Digraph(0);
  other.uid_ = next_uid();
  other.version_ = 0;
  other.delta_base_ = 0;
  other.delta_log_.clear();
  return *this;
}

void TrustGraph::note_change(std::size_t i, std::size_t j) {
  ++version_;
  if (delta_log_.size() >= kDeltaLogCapacity) {
    const std::size_t drop = kDeltaLogCapacity / 2;
    delta_log_.erase(delta_log_.begin(),
                     delta_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    delta_base_ += drop;
  }
  delta_log_.emplace_back(i, j);
}

std::optional<std::vector<std::pair<std::size_t, std::size_t>>>
TrustGraph::edges_changed_since(std::uint64_t since_version) const {
  if (since_version >= version_) return std::vector<std::pair<std::size_t, std::size_t>>{};
  if (since_version < delta_base_) return std::nullopt;  // window lost
  const std::size_t first = since_version - delta_base_;
  return std::vector<std::pair<std::size_t, std::size_t>>(
      delta_log_.begin() + static_cast<std::ptrdiff_t>(first),
      delta_log_.end());
}

void TrustGraph::set_trust(std::size_t i, std::size_t j, double u) {
  detail::require(i < size() && j < size(), "TrustGraph: index out of range");
  detail::require(i != j, "TrustGraph: self-trust is not modeled");
  detail::require(std::isfinite(u), "TrustGraph: trust must be finite");
  detail::require(u >= 0.0, "TrustGraph: trust must be >= 0");
  if (u == 0.0) {
    if (graph_.remove_edge(i, j)) note_change(i, j);
  } else {
    if (graph_.edge_weight(i, j).value_or(0.0) != u) {
      graph_.set_edge(i, j, u);
      note_change(i, j);
    }
  }
}

double TrustGraph::trust(std::size_t i, std::size_t j) const {
  detail::require(i < size() && j < size(), "TrustGraph: index out of range");
  return graph_.edge_weight(i, j).value_or(0.0);
}

linalg::Matrix TrustGraph::normalized_matrix() const {
  linalg::Matrix a = graph_.adjacency_matrix();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    (void)linalg::normalize_l1(row);  // eq. (1); zero rows stay zero
  }
  return a;
}

linalg::Matrix TrustGraph::normalized_matrix(
    const std::vector<std::size_t>& members) const {
  detail::require(std::is_sorted(members.begin(), members.end()) &&
                      std::adjacent_find(members.begin(), members.end()) ==
                          members.end(),
                  "TrustGraph: members must be strictly increasing");
  const std::size_t c = members.size();
  linalg::Matrix a(c, c);
  for (std::size_t i = 0; i < c; ++i) {
    detail::require(members[i] < size(), "TrustGraph: member out of range");
    for (std::size_t j = 0; j < c; ++j) {
      if (i == j) continue;
      a(i, j) = graph_.edge_weight(members[i], members[j]).value_or(0.0);
    }
    auto row = a.row(i);
    (void)linalg::normalize_l1(row);  // normalize within the coalition
  }
  return a;
}

void TrustGraph::append_row(linalg::SparseMatrix::RowBuilder& out,
                            std::size_t gi,
                            const std::vector<std::size_t>* members,
                            bool normalized, RowScratch& row) const {
  detail::require(gi < size(), "TrustGraph: GSP index out of range");
  row.clear();
  for (const graph::Edge& e : graph_.out_edges(gi)) {
    std::size_t lj = e.to;
    if (members != nullptr) {
      const auto it = std::lower_bound(members->begin(), members->end(), e.to);
      if (it == members->end() || *it != e.to) continue;  // outsider
      lj = static_cast<std::size_t>(it - members->begin());
    }
    row.emplace_back(lj, e.weight);
  }
  std::sort(row.begin(), row.end());
  double divisor = 1.0;
  if (normalized) {
    // Ascending sum over the sorted nonzeros == linalg::normalize_l1's
    // sum over the dense row (absent entries add exactly +0.0), so each
    // stored a_ij below is bit-equal to the dense a(i, j).
    double sum = 0.0;
    for (const auto& [c_, w] : row) sum += w;
    if (sum > 0.0) divisor = sum;  // else every weight is 0: none stored
  }
  for (const auto& [lj, w] : row) out.push(lj, w / divisor);
  out.end_row();
}

linalg::SparseMatrix TrustGraph::build_sparse(
    const std::vector<std::size_t>* members, bool normalized) const {
  std::size_t n = 0;
  if (members != nullptr) {
    detail::require(std::is_sorted(members->begin(), members->end()) &&
                        std::adjacent_find(members->begin(), members->end()) ==
                            members->end(),
                    "TrustGraph: members must be strictly increasing");
    n = members->size();
  } else {
    n = size();
  }
  linalg::SparseMatrix::RowBuilder out(
      n, n, members == nullptr ? graph_.edge_count() : n * 4);
  RowScratch row;
  for (std::size_t li = 0; li < n; ++li) {
    append_row(out, members == nullptr ? li : (*members)[li], members,
               normalized, row);
  }
  return std::move(out).finish();
}

linalg::SparseMatrix TrustGraph::normalized_rows(
    std::span<const std::size_t> rows) const {
  linalg::SparseMatrix::RowBuilder out(rows.size(), size());
  RowScratch row;
  for (const std::size_t i : rows) {
    append_row(out, i, nullptr, /*normalized=*/true, row);
  }
  return std::move(out).finish();
}

linalg::SparseMatrix TrustGraph::normalized_sparse() const {
  return build_sparse(nullptr, /*normalized=*/true);
}

linalg::SparseMatrix TrustGraph::normalized_sparse(
    const std::vector<std::size_t>& members) const {
  return build_sparse(&members, /*normalized=*/true);
}

linalg::SparseMatrix TrustGraph::raw_sparse() const {
  return build_sparse(nullptr, /*normalized=*/false);
}

linalg::SparseMatrix TrustGraph::raw_sparse(
    const std::vector<std::size_t>& members) const {
  return build_sparse(&members, /*normalized=*/false);
}

void TrustGraph::record_interaction(std::size_t truster, std::size_t trustee,
                                    double outcome, double rate) {
  detail::require(outcome >= 0.0 && outcome <= 1.0,
                  "TrustGraph: outcome must be in [0,1]");
  detail::require(rate > 0.0 && rate <= 1.0,
                  "TrustGraph: rate must be in (0,1]");
  const double updated = (1.0 - rate) * trust(truster, trustee) + rate * outcome;
  set_trust(truster, trustee, updated);
}

TrustGraph random_trust_graph(std::size_t m, double p, util::Xoshiro256& rng) {
  graph::ErdosRenyiOptions opts;
  opts.p = p;
  return TrustGraph(graph::erdos_renyi(m, opts, rng));
}

TrustGraph random_sparse_trust_graph(std::size_t m, std::size_t degree,
                                     util::Xoshiro256& rng) {
  detail::require(m >= 2, "random_sparse_trust_graph: need at least 2 GSPs");
  detail::require(degree >= 1,
                  "random_sparse_trust_graph: degree must be >= 1");
  graph::Digraph g(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t t = 0; t < degree; ++t) {
      const std::size_t j = rng.index(m);
      if (j == i) continue;  // no self-trust; expected degree ~ degree*(1-1/m)
      double w = rng.uniform(0.0, 1.0);
      if (w <= 0.0) w = std::numeric_limits<double>::min();
      g.set_edge(i, j, w);
    }
  }
  return TrustGraph(std::move(g));
}

}  // namespace svo::trust
