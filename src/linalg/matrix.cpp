#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace svo::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw DimensionMismatch("Matrix: data size != rows * cols");
  }
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& data) {
  if (data.empty()) return {};
  Matrix m(data.size(), data.front().size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i].size() != m.cols_) {
      throw DimensionMismatch("Matrix::from_rows: ragged rows");
    }
    for (std::size_t j = 0; j < m.cols_; ++j) m(i, j) = data[i][j];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
  detail::require(i < rows_ && j < cols_, "Matrix::at: index out of range");
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  detail::require(i < rows_ && j < cols_, "Matrix::at: index out of range");
  return (*this)(i, j);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) {
    throw DimensionMismatch("Matrix::multiply: size mismatch");
  }
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = data_.data() + i * cols_;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * x[j];
    y[i] = acc;
  }
  return y;
}

std::vector<double> Matrix::multiply_transposed(
    std::span<const double> x) const {
  if (x.size() != rows_) {
    throw DimensionMismatch("Matrix::multiply_transposed: size mismatch");
  }
  std::vector<double> y(cols_, 0.0);
  // Row-major friendly order: accumulate row i scaled by x[i].
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* r = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) y[j] += xi * r[j];
  }
  return y;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double norm_l1(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += std::abs(x);
  return acc;
}

double norm_l2(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double norm_linf(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (double x : v) acc = std::max(acc, std::abs(x));
  return acc;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw DimensionMismatch("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double distance_l1(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw DimensionMismatch("distance_l1: size mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

bool normalize_l1(std::span<double> v) noexcept {
  const double s = norm_l1(v);
  if (s <= 0.0) return false;
  for (double& x : v) x /= s;
  return true;
}

double trimmed_sum(std::span<double> v, double trim_fraction) {
  detail::require(trim_fraction >= 0.0 && trim_fraction < 0.5,
                  "trimmed_sum: trim_fraction must be in [0, 0.5)");
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  const std::size_t t =
      static_cast<std::size_t>(trim_fraction * static_cast<double>(n));
  std::sort(v.begin(), v.end());
  double acc = 0.0;
  if (2 * t >= n) {
    for (double x : v) acc += x;
    return acc;
  }
  for (std::size_t i = t; i < n - t; ++i) acc += v[i];
  return acc * static_cast<double>(n) / static_cast<double>(n - 2 * t);
}

double median_of_means_sum(std::span<double> v, std::size_t buckets) {
  detail::require(buckets >= 1, "median_of_means_sum: buckets must be >= 1");
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  const std::size_t b = std::min(buckets, n);
  std::vector<double> means(b, 0.0);
  std::vector<std::size_t> counts(b, 0);
  for (std::size_t i = 0; i < n; ++i) {
    means[i % b] += v[i];
    ++counts[i % b];
  }
  for (std::size_t k = 0; k < b; ++k) {
    means[k] /= static_cast<double>(counts[k]);
  }
  std::sort(means.begin(), means.end());
  const double median = b % 2 == 1
                            ? means[b / 2]
                            : 0.5 * (means[b / 2 - 1] + means[b / 2]);
  return median * static_cast<double>(n);
}

}  // namespace svo::linalg
