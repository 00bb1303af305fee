/// \file sparse.hpp
/// Compressed-sparse-row (CSR) matrix and the sparse power iteration the
/// reputation engine runs on at every size (DESIGN.md §4i).
///
/// The paper's trust matrices are 16x16 and dense; the ROADMAP regime is
/// 100k-1M participants whose trust graphs are overwhelmingly sparse
/// (average degree tens, not tens of thousands). This module supplies:
///
///  - `SparseMatrix`: immutable CSR with column-sorted rows, built from
///    triplets or, without a sort, from rows already in order
///    (`RowBuilder`); O(nnz) storage, O(row) iteration, O(log deg) lookup.
///  - `GatherOperator` + `sparse_power_method`: the sparse twin of
///    linalg::power_method, in two steps. Preparing the operator checks
///    A and transposes it once, storing A^T's rows in ascending length
///    order; iterating applies it in *gather* form — output j is the
///    i-ascending dot of A^T's row j with x — which makes the serial and
///    pooled paths bit-identical to each other AND to the dense
///    reference's summation order. Dense-vs-sparse equivalence is exact,
///    not approximate (tests/trust/sparse_reputation_test.cpp), and the
///    pooled path is deterministic for every thread count. A kept
///    operator can have rows re-weighted in place, so a caller iterating
///    a slowly changing matrix pays O(changed rows) instead of O(nnz)
///    set-up per solve.
///  - Incremental re-convergence: a caller holding the previous round's
///    eigenvector passes it as `warm_start`; the iteration starts there
///    instead of uniform and converges in a fraction of the cold
///    iterations when few trust edges changed (bench_trust_scale).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/power_method.hpp"

namespace svo::linalg {

/// One explicit entry of a sparse matrix under construction.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix. Rows store column-sorted entries; exact zeros
/// are dropped at build time, so "stored entry" always means "structural
/// nonzero" (the dangling-row test of the power method relies on this).
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Build from triplets (any order; duplicates of the same (row, col)
  /// are summed; entries that are — or sum to — exactly 0 are dropped).
  /// Throws InvalidArgument on out-of-range indices or non-finite values
  /// (a duplicate sum that overflows included).
  [[nodiscard]] static SparseMatrix from_triplets(std::size_t rows,
                                                  std::size_t cols,
                                                  std::vector<Triplet> triplets);

  /// O(nnz) assembly from entries already in CSR order (defined below).
  class RowBuilder;

  /// CSR view of a dense matrix (entries exactly 0 dropped).
  [[nodiscard]] static SparseMatrix from_dense(const Matrix& dense);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Stored (structural nonzero) entries.
  [[nodiscard]] std::size_t nnz() const noexcept { return col_.size(); }
  /// nnz / (rows * cols); 0 for an empty matrix.
  [[nodiscard]] double fill_ratio() const noexcept;

  /// One row's entries: parallel spans of column indices (ascending) and
  /// values.
  struct RowView {
    std::span<const std::size_t> cols;
    std::span<const double> values;
    [[nodiscard]] std::size_t size() const noexcept { return cols.size(); }
    [[nodiscard]] bool empty() const noexcept { return cols.empty(); }
  };

  /// Row i's stored entries. Throws InvalidArgument when out of range.
  [[nodiscard]] RowView row(std::size_t i) const;

  /// Entry (i, j); 0 when not stored. O(log deg(i)).
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Dense copy (for tests and small-k interop).
  [[nodiscard]] Matrix to_dense() const;

  /// Transposed copy (CSC of *this viewed as CSR): row j of the result
  /// holds the incoming entries of column j, sorted by source row — the
  /// gather layout both the sparse power method and the robust
  /// aggregation consume.
  [[nodiscard]] SparseMatrix transposed() const;

  /// y = M x. Throws DimensionMismatch on size mismatch.
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// y = M^T x (no transposed copy materialized; scatter form, serial).
  [[nodiscard]] std::vector<double> multiply_transposed(
      std::span<const double> x) const;

 private:
  friend class GatherOperator;  // lays out and re-weights its transpose

  /// Stored entries per column: the row lengths of the transpose.
  [[nodiscard]] std::vector<std::size_t> column_counts() const;
  /// The transpose with its rows permuted: row p holds column order[p],
  /// sorted by source row. `next` is column_counts().
  [[nodiscard]] SparseMatrix transposed(std::span<const std::size_t> order,
                                        std::vector<std::size_t> next) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// rows_ + 1 offsets into col_/val_ (empty matrix: single 0).
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

/// O(nnz) assembly from entries that are already in CSR order: rows are
/// filled in ascending order, each with strictly ascending columns, so
/// unlike from_triplets nothing is sorted. Same value contract:
/// non-finite values throw, exact zeros are not stored.
class SparseMatrix::RowBuilder {
 public:
  /// `nnz_hint` only reserves storage.
  RowBuilder(std::size_t rows, std::size_t cols, std::size_t nnz_hint = 0);

  /// Append entry (current row, col). Throws InvalidArgument when every
  /// row is already ended, when `col` is out of range or not above the
  /// row's previous column, or when `value` is not finite.
  void push(std::size_t col, double value);
  /// End the current row; the next push() goes to the row after it.
  void end_row();
  /// The matrix; rows never reached are empty.
  [[nodiscard]] SparseMatrix finish() &&;

 private:
  SparseMatrix m_;
  std::size_t next_col_ = 0;  ///< smallest column the current row accepts
};

/// The operator sparse_power_method iterates, prepared once from a
/// square, non-negative A: A^T — the gather layout — and A's dangling
/// (empty) rows. A^T's rows are stored in ascending stored-entry count,
/// ties by row index, so the gather loop meets rows of one length in a
/// run (DESIGN.md §4i). Keeping one lets a caller iterate the same
/// matrix again, or re-weight some of its rows in place, without
/// re-checking and re-transposing all of A (trust::ReputationCache).
class GatherOperator {
 public:
  /// The operator of the empty 0x0 matrix.
  GatherOperator() = default;

  /// Throws InvalidArgument unless `a` is square and non-negative. O(nnz).
  explicit GatherOperator(const SparseMatrix& a);

  /// Dimension n of A.
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// Stored entries of A.
  [[nodiscard]] std::size_t nnz() const noexcept { return by_length_.nnz(); }
  /// nnz / n²; 0 for the empty operator.
  [[nodiscard]] double fill_ratio() const noexcept {
    return by_length_.fill_ratio();
  }
  /// Row j of A^T — column j of A — sorted by source row. Throws
  /// InvalidArgument when out of range.
  [[nodiscard]] SparseMatrix::RowView incoming(std::size_t j) const;
  /// Rows of A with no stored entry, ascending.
  [[nodiscard]] const std::vector<std::size_t>& dangling() const noexcept {
    return dangling_;
  }

  /// One step of the dangling-patched, damped operator:
  ///   y_j = (1-d) * (sum_i a_ij x_i + m / n) + d / n,
  /// m the mass x puts on dangling rows. Each sum runs i-ascending, as in
  /// linalg::power_method, so every y_j has the dense reference's bits at
  /// any `threads`; above a size threshold the outputs are split over the
  /// pool. y is overwritten. Throws DimensionMismatch unless x and y
  /// have size().
  void apply(double damping, std::span<const double> x, std::span<double> y,
             std::size_t threads) const;

  /// Re-weight rows of A in place: row `rows[k]` of A takes the values of
  /// row k of `patch` (a rows.size() x n matrix). All or nothing: returns
  /// false and changes nothing unless every listed row of `patch` stores
  /// exactly the columns that row of A stores now. An entry added,
  /// dropped or turned zero — so also a row becoming or ceasing to be
  /// dangling — needs a freshly prepared operator. Written values are
  /// the patch's bits, so a patched operator equals one prepared from
  /// the patched A. Throws InvalidArgument on mismatched shapes, an
  /// out-of-range row or a negative value.
  bool reweight_rows(std::span<const std::size_t> rows,
                     const SparseMatrix& patch);

 private:
  /// A^T with its rows in ascending length: row p is A^T's row order_[p].
  SparseMatrix by_length_;
  /// Position -> A^T row (the gather's output index).
  std::vector<std::size_t> order_;
  /// A^T row -> position in by_length_.
  std::vector<std::size_t> position_;
  std::vector<std::size_t> dangling_;
  /// Stored entries per row of A. A patch row keeps A's column set iff
  /// it stores as many entries and each is found in A^T.
  std::vector<std::size_t> row_nnz_;
};

/// Sparse twin of linalg::power_method: dominant *left* eigenvector of
/// the matrix `op` was prepared from, by normalized power iteration, with
/// the same dangling-row and damping conventions. Bit-identical to the
/// dense reference on the same matrix (see the file comment), at any
/// `opts.threads`.
///
/// `warm_start`, when non-empty, must have size op.size(), be finite and
/// non-negative with positive sum; it replaces the uniform start vector
/// (after L1 normalization). Warm and cold runs converge to the same
/// fixed point within `opts.epsilon` — the *iterate path* differs, so a
/// warm result matches a cold one only up to the documented tolerance
/// (DESIGN.md §4i); callers needing bit-identical replays must either
/// both warm-start or both cold-start.
[[nodiscard]] PowerMethodResult sparse_power_method(
    const GatherOperator& op, const PowerMethodOptions& opts = {},
    std::span<const double> warm_start = {});

/// Prepare `a`'s operator and iterate it: the one-shot form.
[[nodiscard]] PowerMethodResult sparse_power_method(
    const SparseMatrix& a, const PowerMethodOptions& opts = {},
    std::span<const double> warm_start = {});

}  // namespace svo::linalg
