#include "trust/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace svo::trust {

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

double median_inplace(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

void RobustOptions::validate() const {
  detail::require(credibility_strength >= 0.0,
                  "RobustOptions: credibility_strength must be >= 0");
  detail::require(trim_fraction >= 0.0 && trim_fraction < 0.5,
                  "RobustOptions: trim_fraction must be in [0, 0.5)");
  detail::require(mom_buckets >= 1, "RobustOptions: mom_buckets must be >= 1");
  detail::require(quarantine_prior > 0.0 && quarantine_prior <= 1.0,
                  "RobustOptions: quarantine_prior must be in (0, 1]");
}

std::vector<double> consensus_opinions(
    const TrustGraph& g, const std::vector<std::size_t>& members) {
  const std::size_t c = members.size();
  std::vector<double> consensus(c,
                                std::numeric_limits<double>::quiet_NaN());
  std::vector<double> reports;
  for (std::size_t j = 0; j < c; ++j) {
    reports.clear();
    for (std::size_t i = 0; i < c; ++i) {
      if (i == j) continue;
      const double u = g.trust(members[i], members[j]);
      if (u > 0.0) reports.push_back(clamp01(u));
    }
    if (!reports.empty()) consensus[j] = median_inplace(reports);
  }
  return consensus;
}

std::vector<double> rater_credibility(const TrustGraph& g,
                                      const std::vector<std::size_t>& members,
                                      double strength) {
  detail::require(strength >= 0.0,
                  "rater_credibility: strength must be >= 0");
  const std::size_t c = members.size();
  const std::vector<double> consensus = consensus_opinions(g, members);
  std::vector<double> weights(c, 1.0);
  for (std::size_t i = 0; i < c; ++i) {
    double deviation = 0.0;
    std::size_t rated = 0;
    for (std::size_t j = 0; j < c; ++j) {
      if (i == j || std::isnan(consensus[j])) continue;
      const double u = g.trust(members[i], members[j]);
      if (u <= 0.0) continue;
      deviation += std::abs(clamp01(u) - consensus[j]);
      ++rated;
    }
    if (rated > 0) {
      weights[i] = std::exp(-strength * deviation / static_cast<double>(rated));
    }
  }
  return weights;
}

linalg::PowerMethodResult robust_power_method(
    const linalg::Matrix& a, const std::vector<double>& weights,
    const linalg::PowerMethodOptions& power, RowAggregation aggregation,
    double trim_fraction, std::size_t mom_buckets) {
  detail::require(a.rows() == a.cols(),
                  "robust_power_method: matrix must be square");
  detail::require(weights.size() == a.rows(),
                  "robust_power_method: one weight per rater row");
  power.validate();
  detail::require(trim_fraction >= 0.0 && trim_fraction < 0.5,
                  "robust_power_method: trim_fraction must be in [0, 0.5)");
  detail::require(mom_buckets >= 1,
                  "robust_power_method: mom_buckets must be >= 1");

  linalg::PowerMethodResult result;
  const std::size_t n = a.rows();
  if (n == 0) {
    result.converged = true;
    return result;
  }
  std::vector<bool> dangling(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    detail::require(weights[i] > 0.0 && weights[i] <= 1.0,
                    "robust_power_method: weights must be in (0, 1]");
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = a(i, j);
      detail::require(std::isfinite(v) && v >= 0.0,
                      "robust_power_method: matrix must be finite and "
                      "non-negative");
      row_sum += v;
    }
    dangling[i] = (row_sum <= 0.0);
  }

  const double d = power.damping;
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> y(n, 0.0);
  std::vector<double> contributions;

  for (std::size_t it = 0; it < power.max_iterations; ++it) {
    // Dangling raters spread their (credibility-weighted) mass
    // uniformly, exactly as the literal operator does.
    double dangling_mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dangling[i]) dangling_mass += weights[i] * x[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      contributions.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (dangling[i]) continue;
        const double aij = a(i, j);
        if (aij <= 0.0) continue;
        contributions.push_back(weights[i] * x[i] * aij);
      }
      double agg = 0.0;
      switch (aggregation) {
        case RowAggregation::Sum:
          for (const double v : contributions) agg += v;
          break;
        case RowAggregation::TrimmedMean:
          agg = linalg::trimmed_sum(contributions, trim_fraction);
          break;
        case RowAggregation::MedianOfMeans:
          agg = linalg::median_of_means_sum(contributions, mom_buckets);
          break;
      }
      y[j] = (1.0 - d) * (agg + dangling_mass / static_cast<double>(n)) +
             d / static_cast<double>(n);
    }
    result.eigenvalue = linalg::norm_l1(y);
    if (!linalg::normalize_l1(y)) {
      std::fill(y.begin(), y.end(), 1.0 / static_cast<double>(n));
      result.iterations = it + 1;
      result.converged = false;
      result.eigenvector = std::move(y);
      return result;
    }
    const double delta = linalg::distance_l1(y, x);
    x.swap(y);
    result.iterations = it + 1;
    if (delta < power.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.eigenvector = std::move(x);
  return result;
}

std::vector<double> consensus_opinions(const linalg::SparseMatrix& raw) {
  detail::require(raw.rows() == raw.cols(),
                  "consensus_opinions: matrix must be square");
  const std::size_t c = raw.rows();
  std::vector<double> consensus(c, std::numeric_limits<double>::quiet_NaN());
  const linalg::SparseMatrix incoming = raw.transposed();
  std::vector<double> reports;
  for (std::size_t j = 0; j < c; ++j) {
    const linalg::SparseMatrix::RowView in = incoming.row(j);
    reports.clear();
    for (const double u : in.values) {
      if (u > 0.0) reports.push_back(clamp01(u));
    }
    if (!reports.empty()) consensus[j] = median_inplace(reports);
  }
  return consensus;
}

std::vector<double> rater_credibility(const linalg::SparseMatrix& raw,
                                      double strength) {
  detail::require(strength >= 0.0, "rater_credibility: strength must be >= 0");
  detail::require(raw.rows() == raw.cols(),
                  "rater_credibility: matrix must be square");
  const std::size_t c = raw.rows();
  const std::vector<double> consensus = consensus_opinions(raw);
  std::vector<double> weights(c, 1.0);
  for (std::size_t i = 0; i < c; ++i) {
    const linalg::SparseMatrix::RowView out = raw.row(i);
    double deviation = 0.0;
    std::size_t rated = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double u = out.values[k];
      if (u <= 0.0 || std::isnan(consensus[out.cols[k]])) continue;
      deviation += std::abs(clamp01(u) - consensus[out.cols[k]]);
      ++rated;
    }
    if (rated > 0) {
      weights[i] = std::exp(-strength * deviation / static_cast<double>(rated));
    }
  }
  return weights;
}

linalg::PowerMethodResult robust_power_method(
    const linalg::SparseMatrix& a, const std::vector<double>& weights,
    const linalg::PowerMethodOptions& power, RowAggregation aggregation,
    double trim_fraction, std::size_t mom_buckets) {
  detail::require(a.rows() == a.cols(),
                  "robust_power_method: matrix must be square");
  detail::require(weights.size() == a.rows(),
                  "robust_power_method: one weight per rater row");
  power.validate();
  detail::require(trim_fraction >= 0.0 && trim_fraction < 0.5,
                  "robust_power_method: trim_fraction must be in [0, 0.5)");
  detail::require(mom_buckets >= 1,
                  "robust_power_method: mom_buckets must be >= 1");

  linalg::PowerMethodResult result;
  const std::size_t n = a.rows();
  if (n == 0) {
    result.converged = true;
    return result;
  }
  for (const double w : weights) {
    detail::require(w > 0.0 && w <= 1.0,
                    "robust_power_method: weights must be in (0, 1]");
  }
  // The sparse power method's prepared operator: the non-negativity
  // check, A^T and the dangling rows.
  const linalg::GatherOperator op(a);

  const double d = power.damping;
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> y(n, 0.0);
  std::vector<double> contributions;

  for (std::size_t it = 0; it < power.max_iterations; ++it) {
    double dangling_mass = 0.0;
    for (const std::size_t i : op.dangling()) {
      dangling_mass += weights[i] * x[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      const linalg::SparseMatrix::RowView in = op.incoming(j);
      contributions.clear();
      // Rater-ascending, x_i == 0 contributions kept: they take part in
      // the order statistics exactly as in the dense loop.
      for (std::size_t k = 0; k < in.size(); ++k) {
        const std::size_t i = in.cols[k];
        contributions.push_back(weights[i] * x[i] * in.values[k]);
      }
      double agg = 0.0;
      switch (aggregation) {
        case RowAggregation::Sum:
          for (const double v : contributions) agg += v;
          break;
        case RowAggregation::TrimmedMean:
          agg = linalg::trimmed_sum(contributions, trim_fraction);
          break;
        case RowAggregation::MedianOfMeans:
          agg = linalg::median_of_means_sum(contributions, mom_buckets);
          break;
      }
      y[j] = (1.0 - d) * (agg + dangling_mass / static_cast<double>(n)) +
             d / static_cast<double>(n);
    }
    result.eigenvalue = linalg::norm_l1(y);
    if (!linalg::normalize_l1(y)) {
      std::fill(y.begin(), y.end(), 1.0 / static_cast<double>(n));
      result.iterations = it + 1;
      result.converged = false;
      result.eigenvector = std::move(y);
      return result;
    }
    const double delta = linalg::distance_l1(y, x);
    x.swap(y);
    result.iterations = it + 1;
    if (delta < power.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.eigenvector = std::move(x);
  return result;
}

double rank_corruption(const std::vector<double>& reference,
                       const std::vector<double>& other) {
  detail::require(reference.size() == other.size(),
                  "rank_corruption: size mismatch");
  const std::size_t n = reference.size();
  std::size_t ordered = 0;
  std::size_t inverted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double ref = reference[i] - reference[j];
      if (ref == 0.0) continue;  // tie in the reference: no order to corrupt
      ++ordered;
      const double oth = other[i] - other[j];
      if (ref * oth < 0.0 || (oth == 0.0 && ref != 0.0)) {
        // Count a tie in `other` as half an inversion? No: a collapsed
        // pair has lost its order — count it fully, it is corruption.
        ++inverted;
      }
    }
  }
  return ordered == 0 ? 0.0
                      : static_cast<double>(inverted) /
                            static_cast<double>(ordered);
}

}  // namespace svo::trust
