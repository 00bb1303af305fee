/// \file dense_reference.hpp
/// The reputation engine's computation redone with the paper's dense
/// functions — TrustGraph::normalized_matrix, linalg::power_method and
/// the dense robust overloads. The engine iterates on CSR at every size;
/// this is the reference the tests and bench_trust_scale check it
/// against, bit for bit (DESIGN.md §4i).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/power_method.hpp"
#include "trust/reputation.hpp"
#include "trust/robust.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust::testing {

/// What ReputationEngine(o).compute(g, *members) computes — or
/// compute(g) when `members` is null: linalg::power_method on the dense
/// normalized matrix for the standard pipeline; rater_credibility, the
/// quarantine prior and robust_power_method on the dense matrices for
/// the robust one. Ignores `o.cache`.
inline ReputationResult dense_reference(
    const ReputationOptions& o, const TrustGraph& g,
    const std::vector<std::size_t>* members) {
  std::vector<std::size_t> all(g.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::size_t>& m = members != nullptr ? *members : all;
  linalg::PowerMethodResult pm;
  std::vector<std::size_t> fresh_pos;
  if (!o.robust.enabled) {
    pm = linalg::power_method(
        members != nullptr ? g.normalized_matrix(m) : g.normalized_matrix(),
        o.power);
  } else {
    std::vector<double> weights(m.size(), 1.0);
    if (o.robust.credibility_weighting) {
      weights = rater_credibility(g, m, o.robust.credibility_strength);
    }
    for (const std::size_t id : o.robust.fresh) {
      const auto it = std::lower_bound(m.begin(), m.end(), id);
      if (it == m.end() || *it != id) continue;
      fresh_pos.push_back(static_cast<std::size_t>(it - m.begin()));
      weights[fresh_pos.back()] *= o.robust.quarantine_prior;
    }
    pm = robust_power_method(g.normalized_matrix(m), weights, o.power,
                             o.robust.aggregation, o.robust.trim_fraction,
                             o.robust.mom_buckets);
  }
  ReputationResult r;
  r.scores = pm.eigenvector;
  r.iterations = pm.iterations;
  r.converged = pm.converged;
  for (const std::size_t p : fresh_pos) {
    r.scores[p] *= o.robust.quarantine_prior;
  }
  if (!fresh_pos.empty()) {
    double sum = 0.0;
    for (const double v : r.scores) sum += v;
    if (sum > 0.0) {
      for (double& v : r.scores) v /= sum;
    }
  }
  r.average = average_reputation(r.scores);
  return r;
}

}  // namespace svo::trust::testing
