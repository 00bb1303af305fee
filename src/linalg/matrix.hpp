/// \file matrix.hpp
/// Dense row-major matrix of doubles plus the vector kernels the
/// reputation engine and LP solver need. Deliberately minimal: this is a
/// simulation substrate, not a BLAS replacement.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace svo::linalg {

/// Dense row-major matrix.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// rows x cols matrix over row-major `data`. Throws DimensionMismatch
  /// unless data.size() == rows * cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Build from nested initializer-style data; every row must have the
  /// same length. Throws DimensionMismatch otherwise.
  static Matrix from_rows(const std::vector<std::vector<double>>& data);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Unchecked element access (hot paths); bounds are asserted in debug.
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Checked element access. Throws InvalidArgument when out of range.
  [[nodiscard]] double& at(std::size_t i, std::size_t j);
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// View of row i.
  [[nodiscard]] std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// y = M x. Throws DimensionMismatch on size mismatch.
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// y = M^T x (no transposed copy materialized).
  [[nodiscard]] std::vector<double> multiply_transposed(
      std::span<const double> x) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Raw storage (row-major).
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Sum of |v_i| (L1 norm).
[[nodiscard]] double norm_l1(std::span<const double> v) noexcept;
/// Euclidean norm.
[[nodiscard]] double norm_l2(std::span<const double> v) noexcept;
/// Max |v_i| norm.
[[nodiscard]] double norm_linf(std::span<const double> v) noexcept;
/// Dot product. Throws DimensionMismatch on size mismatch.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
/// L1 distance between two equal-length vectors.
[[nodiscard]] double distance_l1(std::span<const double> a,
                                 std::span<const double> b);
/// Scale v in place so that its entries sum to 1 (L1 normalization).
/// A zero vector is left unchanged and reported by returning false.
bool normalize_l1(std::span<double> v) noexcept;

/// Outlier-resistant sum estimators for the robust reputation pipeline
/// (trust/robust.hpp): both estimate sum(v) while bounding the influence
/// any small subset of entries can exert.
///
/// Trimmed sum: sort v in place, drop floor(trim_fraction * n) entries
/// from each end, and rescale the middle sum by n / (n - 2t) so the
/// estimate stays comparable to a plain sum. trim_fraction must be in
/// [0, 0.5); when trimming would leave nothing, the untrimmed sum is
/// returned. Empty v yields 0.
[[nodiscard]] double trimmed_sum(std::span<double> v, double trim_fraction);

/// Median-of-means sum: deal entries round-robin (in index order) into
/// `buckets` groups, take each group's mean, and return median(means) * n.
/// buckets must be >= 1; it is clamped to n. Reorders v in place (the
/// bucket means are sorted for the median). Empty v yields 0.
[[nodiscard]] double median_of_means_sum(std::span<double> v,
                                         std::size_t buckets);

}  // namespace svo::linalg
