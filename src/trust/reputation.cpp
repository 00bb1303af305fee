#include "trust/reputation.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "obs/trace.hpp"

namespace svo::trust {

namespace {

/// Shared telemetry tail for every reputation computation path.
/// `iterated` is false when `r` was replayed from a cache: no power
/// iteration ran, so none is counted.
void note_reputation(obs::Span& span, const char* mode,
                     const ReputationResult& r, bool iterated = true) {
  if (!span.active()) return;
  span.arg("mode", mode);
  span.arg("coalition", static_cast<double>(r.scores.size()));
  span.arg("iterations", static_cast<double>(r.iterations));
  span.arg("converged", r.converged ? 1.0 : 0.0);
  span.arg("avg_reputation", r.average);
  obs::MetricRegistry& m = obs::Recorder::instance().metrics();
  m.counter("trust.reputation.computes").add();
  if (iterated) {
    m.counter("trust.reputation.power_iterations").add(r.iterations);
  }
  if (!r.converged) m.counter("trust.reputation.nonconverged").add();
}

/// The engine's view of one power iteration, with eq. (7)'s average.
ReputationResult to_result(const linalg::PowerMethodResult& pm) {
  ReputationResult r;
  r.scores = pm.eigenvector;
  r.iterations = pm.iterations;
  r.converged = pm.converged;
  r.average = average_reputation(r.scores);
  return r;
}

/// Cache fingerprint: two power-option sets produce interchangeable
/// results only when every knob matches (threads included — results are
/// identical across thread counts, but keeping the fingerprint strict
/// costs one cold start and removes a class of aliasing questions).
bool same_power(const linalg::PowerMethodOptions& a,
                const linalg::PowerMethodOptions& b) noexcept {
  return a.epsilon == b.epsilon && a.max_iterations == b.max_iterations &&
         a.damping == b.damping && a.threads == b.threads;
}

}  // namespace

void ReputationOptions::validate() const {
  power.validate();
  robust.validate();
  detail::require(!(robust.enabled && cache != nullptr),
                  "ReputationOptions: cache requires the standard "
                  "(non-robust) pipeline — the quarantine list varies per "
                  "round, so memoization would be incorrect");
}

ReputationResult ReputationEngine::from_sparse(
    const linalg::SparseMatrix& a) const {
  obs::Span span("trust.reputation.compute", "trust");
  ReputationResult r = to_result(linalg::sparse_power_method(a, opts_.power));
  note_reputation(span, "standard", r);
  return r;
}

ReputationResult ReputationEngine::full_sparse(const TrustGraph& g) const {
  ReputationCache* cache = opts_.cache;
  if (cache == nullptr) return from_sparse(g.normalized_sparse());

  obs::Span span("trust.reputation.compute", "trust");
  obs::MetricRegistry& m = obs::Recorder::instance().metrics();
  const bool same_graph = cache->has_entry_ && cache->graph_uid_ == g.uid();
  const bool keyed = same_graph && same_power(cache->power_, opts_.power);
  if (keyed && cache->graph_version_ == g.version()) {
    // Exact reuse: the compute is deterministic, so returning the memo
    // is bit-identical to re-running it.
    ++cache->stats_.exact_hits;
    note_reputation(span, "cached", cache->result_, /*iterated=*/false);
    if (span.active()) m.counter("trust.reputation.cache_exact_hits").add();
    return cache->result_;
  }

  using Delta = std::vector<std::pair<std::size_t, std::size_t>>;
  const std::optional<Delta> delta =
      same_graph ? g.edges_changed_since(cache->graph_version_) : std::nullopt;
  std::span<const double> warm;
  if (keyed && cache->result_.converged &&
      cache->result_.scores.size() == g.size() && delta.has_value() &&
      delta->size() <= opts_.warm_max_delta) {
    warm = cache->result_.scores;
  }

  // Bring the kept operator to this version. Until the memo is rewritten
  // below, the entry is marked empty: should anything throw, the next
  // compute rebuilds rather than patch an operator of unknown content.
  cache->has_entry_ = false;
  bool patched = false;
  if (delta.has_value()) {
    std::vector<std::size_t> rows;
    rows.reserve(delta->size());
    for (const auto& [truster, trustee] : *delta) rows.push_back(truster);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    patched = cache->operator_.reweight_rows(rows, g.normalized_rows(rows));
  }
  if (patched) {
    ++cache->stats_.operator_patches;
    if (span.active()) m.counter("trust.reputation.operator_patches").add();
  } else {
    cache->operator_ = linalg::GatherOperator(g.normalized_sparse());
    ++cache->stats_.operator_builds;
    if (span.active()) m.counter("trust.reputation.operator_builds").add();
  }

  const linalg::PowerMethodResult pm =
      linalg::sparse_power_method(cache->operator_, opts_.power, warm);
  ReputationResult r = to_result(pm);

  if (pm.warm_started) {
    ++cache->stats_.warm_starts;
    const std::size_t saved =
        cache->cold_iterations_ > pm.iterations
            ? cache->cold_iterations_ - pm.iterations
            : 0;
    cache->stats_.iterations_saved += saved;
    if (span.active()) {
      m.counter("trust.reputation.warm_starts").add();
      m.counter("trust.reputation.iterations_saved").add(saved);
    }
  } else {
    ++cache->stats_.cold_starts;
    cache->cold_iterations_ = pm.iterations;
    if (span.active()) m.counter("trust.reputation.cold_starts").add();
  }
  cache->has_entry_ = true;
  cache->graph_uid_ = g.uid();
  cache->graph_version_ = g.version();
  cache->power_ = opts_.power;
  cache->result_ = r;
  note_reputation(span, pm.warm_started ? "warm" : "standard", r);
  return r;
}

ReputationResult ReputationEngine::compute_robust(
    const TrustGraph& g, const std::vector<std::size_t>& members) const {
  obs::Span span("trust.reputation.compute", "trust");
  opts_.robust.validate();
  std::vector<double> weights(members.size(), 1.0);
  if (opts_.robust.credibility_weighting) {
    weights = rater_credibility(g.raw_sparse(members),
                                opts_.robust.credibility_strength);
  }
  // Quarantined (fresh) identities rate — and are scored — at a
  // discounted prior. `fresh` holds global GSP ids; remap to coalition
  // positions (members is strictly increasing, so binary search works).
  std::vector<std::size_t> fresh_pos;
  for (const std::size_t id : opts_.robust.fresh) {
    const auto it = std::lower_bound(members.begin(), members.end(), id);
    if (it != members.end() && *it == id) {
      fresh_pos.push_back(static_cast<std::size_t>(it - members.begin()));
    }
  }
  for (const std::size_t p : fresh_pos) {
    weights[p] *= opts_.robust.quarantine_prior;
  }

  ReputationResult r = to_result(robust_power_method(
      g.normalized_sparse(members), weights, opts_.power,
      opts_.robust.aggregation, opts_.robust.trim_fraction,
      opts_.robust.mom_buckets));
  if (!fresh_pos.empty()) {
    for (const std::size_t p : fresh_pos) {
      r.scores[p] *= opts_.robust.quarantine_prior;
    }
    double sum = 0.0;
    for (const double s : r.scores) sum += s;
    if (sum > 0.0) {
      for (double& s : r.scores) s /= sum;
    }
    r.average = average_reputation(r.scores);
  }
  note_reputation(span, "robust", r);
  return r;
}

ReputationResult ReputationEngine::compute(const TrustGraph& g) const {
  opts_.validate();
  if (opts_.robust.enabled) {
    std::vector<std::size_t> all(g.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return compute_robust(g, all);
  }
  return full_sparse(g);
}

ReputationResult ReputationEngine::compute(
    const TrustGraph& g, const std::vector<std::size_t>& members) const {
  opts_.validate();
  if (members.empty()) {
    ReputationResult r;
    r.converged = true;
    return r;
  }
  if (opts_.robust.enabled) return compute_robust(g, members);
  return from_sparse(g.normalized_sparse(members));
}

double average_reputation(const std::vector<double>& scores) {
  if (scores.empty()) return 0.0;
  double sum = 0.0;
  for (double s : scores) sum += s;
  return sum / static_cast<double>(scores.size());
}

}  // namespace svo::trust
