#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace svo::linalg {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    detail::require(t.row < rows && t.col < cols,
                    "SparseMatrix: triplet index out of range");
    detail::require(std::isfinite(t.value),
                    "SparseMatrix: triplet value must be finite");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  RowBuilder out(rows, cols, triplets.size());
  std::size_t row = 0;
  for (std::size_t k = 0; k < triplets.size();) {
    const std::size_t r = triplets[k].row;
    const std::size_t c = triplets[k].col;
    double v = 0.0;
    for (; k < triplets.size() && triplets[k].row == r && triplets[k].col == c;
         ++k) {
      v += triplets[k].value;
    }
    for (; row < r; ++row) out.end_row();
    out.push(c, v);
  }
  return std::move(out).finish();
}

SparseMatrix::RowBuilder::RowBuilder(std::size_t rows, std::size_t cols,
                                     std::size_t nnz_hint) {
  m_.rows_ = rows;
  m_.cols_ = cols;
  m_.row_ptr_.reserve(rows + 1);
  m_.row_ptr_.push_back(0);
  m_.col_.reserve(nnz_hint);
  m_.val_.reserve(nnz_hint);
}

void SparseMatrix::RowBuilder::push(std::size_t col, double value) {
  detail::require(m_.row_ptr_.size() <= m_.rows_,
                  "SparseMatrix: row out of range");
  detail::require(col < m_.cols_ && col >= next_col_,
                  "SparseMatrix: columns must be in range and ascend within "
                  "a row");
  detail::require(std::isfinite(value), "SparseMatrix: value must be finite");
  next_col_ = col + 1;
  if (value == 0.0) return;  // stored entry == structural nonzero
  m_.col_.push_back(col);
  m_.val_.push_back(value);
}

void SparseMatrix::RowBuilder::end_row() {
  detail::require(m_.row_ptr_.size() <= m_.rows_,
                  "SparseMatrix: row out of range");
  m_.row_ptr_.push_back(m_.col_.size());
  next_col_ = 0;
}

SparseMatrix SparseMatrix::RowBuilder::finish() && {
  m_.row_ptr_.resize(m_.rows_ + 1, m_.col_.size());
  return std::move(m_);
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (dense(i, j) != 0.0) triplets.push_back({i, j, dense(i, j)});
    }
  }
  return from_triplets(dense.rows(), dense.cols(), std::move(triplets));
}

double SparseMatrix::fill_ratio() const noexcept {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

SparseMatrix::RowView SparseMatrix::row(std::size_t i) const {
  detail::require(i < rows_, "SparseMatrix: row out of range");
  const std::size_t lo = row_ptr_[i];
  const std::size_t hi = row_ptr_[i + 1];
  return {{col_.data() + lo, hi - lo}, {val_.data() + lo, hi - lo}};
}

double SparseMatrix::at(std::size_t i, std::size_t j) const {
  detail::require(i < rows_ && j < cols_, "SparseMatrix: index out of range");
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return val_[static_cast<std::size_t>(it - col_.begin())];
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      m(i, col_[k]) = val_[k];
    }
  }
  return m;
}

std::vector<std::size_t> SparseMatrix::column_counts() const {
  std::vector<std::size_t> counts(cols_, 0);
  for (const std::size_t c : col_) ++counts[c];
  return counts;
}

SparseMatrix SparseMatrix::transposed() const {
  std::vector<std::size_t> order(cols_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return transposed(order, column_counts());
}

SparseMatrix SparseMatrix::transposed(std::span<const std::size_t> order,
                                      std::vector<std::size_t> next) const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.resize(cols_ + 1);
  t.row_ptr_[0] = 0;
  // next[c], column c's count, becomes the slot its next entry goes to.
  for (std::size_t p = 0; p < cols_; ++p) {
    t.row_ptr_[p + 1] = t.row_ptr_[p] + next[order[p]];
    next[order[p]] = t.row_ptr_[p];
  }
  t.col_.resize(nnz());
  t.val_.resize(nnz());
  // Walking rows (and columns within rows) ascending fills each output
  // row in ascending source-row order — the order the gather kernels
  // depend on for dense/sparse bit-identity.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t slot = next[col_[k]]++;
      t.col_[slot] = i;
      t.val_[slot] = val_[k];
    }
  }
  return t;
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) {
    throw DimensionMismatch("SparseMatrix::multiply: size mismatch");
  }
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      acc += val_[k] * x[col_[k]];
    }
    y[i] = acc;
  }
  return y;
}

std::vector<double> SparseMatrix::multiply_transposed(
    std::span<const double> x) const {
  if (x.size() != rows_) {
    throw DimensionMismatch("SparseMatrix::multiply_transposed: size mismatch");
  }
  std::vector<double> y(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      y[col_[k]] += xi * val_[k];
    }
  }
  return y;
}

GatherOperator::GatherOperator(const SparseMatrix& a) {
  detail::require(a.rows() == a.cols(),
                  "sparse_power_method: matrix must be square");
  const std::size_t n = a.rows();
  row_nnz_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SparseMatrix::RowView r = a.row(i);
    row_nnz_[i] = r.size();
    if (r.empty()) dangling_.push_back(i);
    for (const double v : r.values) {
      detail::require(v >= 0.0,
                      "sparse_power_method: matrix must be non-negative");
    }
  }
  // A^T's rows in ascending length, ties by row index: a stable counting
  // sort on A's column counts, each at most n.
  std::vector<std::size_t> length = a.column_counts();
  std::vector<std::size_t> first(n + 2, 0);
  for (const std::size_t len : length) ++first[len + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  order_.resize(n);
  position_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    position_[j] = first[length[j]]++;
    order_[position_[j]] = j;
  }
  by_length_ = a.transposed(order_, std::move(length));
}

SparseMatrix::RowView GatherOperator::incoming(std::size_t j) const {
  detail::require(j < size(), "GatherOperator: row out of range");
  return by_length_.row(position_[j]);
}

void GatherOperator::apply(double damping, std::span<const double> x,
                           std::span<double> y, std::size_t threads) const {
  const std::size_t n = size();
  if (x.size() != n || y.size() != n) {
    throw DimensionMismatch("GatherOperator::apply: size mismatch");
  }
  double dangling_mass = 0.0;
  for (const std::size_t i : dangling_) dangling_mass += x[i];
  const double keep = 1.0 - damping;
  const double base = keep * dangling_mass / static_cast<double>(n) +
                      damping / static_cast<double>(n);
  const std::size_t* ptr = by_length_.row_ptr_.data();
  const std::size_t* src = by_length_.col_.data();
  const double* val = by_length_.val_.data();
  // Positions [begin, end): a run of rows of one length ends where the
  // last one did, so the row-exit branch stays predicted. Each output
  // is the i-ascending dot of its A^T row with x, whichever chunk holds
  // it. No x_i == 0 term is skipped: a ±0 product added to a partial
  // sum >= +0 leaves its bits unchanged (DESIGN.md §4i).
  const auto gather = [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      double acc = 0.0;
      for (std::size_t k = ptr[p]; k < ptr[p + 1]; ++k) {
        acc += x[src[k]] * val[k];
      }
      y[order_[p]] = keep * acc + base;
    }
  };
  // Smaller operators apply serially even when `threads` asks for the
  // pool; every output is the same either way.
  constexpr std::size_t kParallelRows = 2048;
  if (threads > 1 && n >= kParallelRows) {
    const std::size_t chunks = threads * 4;
    const std::size_t grain = (n + chunks - 1) / chunks;
    svo::util::parallel_for(
        0, chunks,
        [&](std::size_t c) {
          gather(std::min(n, c * grain), std::min(n, (c + 1) * grain));
        },
        1);
  } else {
    gather(0, n);
  }
}

bool GatherOperator::reweight_rows(std::span<const std::size_t> rows,
                                   const SparseMatrix& patch) {
  detail::require(patch.rows() == rows.size() && patch.cols() == size(),
                  "GatherOperator: patch shape mismatch");
  // Locate every value's slot in A^T before writing any, so a patch that
  // turns out to change a row's columns leaves the operator untouched.
  std::vector<std::size_t> slots;
  slots.reserve(patch.nnz());
  const auto col = by_length_.col_.begin();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t i = rows[k];
    detail::require(i < size(), "GatherOperator: row out of range");
    const SparseMatrix::RowView r = patch.row(k);
    if (r.size() != row_nnz_[i]) return false;
    for (std::size_t e = 0; e < r.size(); ++e) {
      detail::require(r.values[e] >= 0.0,
                      "GatherOperator: matrix must be non-negative");
      const std::size_t p = position_[r.cols[e]];
      const auto begin =
          col + static_cast<std::ptrdiff_t>(by_length_.row_ptr_[p]);
      const auto end =
          col + static_cast<std::ptrdiff_t>(by_length_.row_ptr_[p + 1]);
      const auto it = std::lower_bound(begin, end, i);
      if (it == end || *it != i) return false;  // A(i, j) not stored
      slots.push_back(static_cast<std::size_t>(it - col));
    }
  }
  // Patch rows are contiguous in patch.val_, in slot order.
  for (std::size_t k = 0; k < slots.size(); ++k) {
    by_length_.val_[slots[k]] = patch.val_[k];
  }
  return true;
}

namespace {

PowerMethodResult sparse_power_method_impl(const GatherOperator& op,
                                           const PowerMethodOptions& opts,
                                           std::span<const double> warm_start,
                                           double* spmv_seconds) {
  opts.validate();

  PowerMethodResult result;
  const std::size_t n = op.size();
  if (n == 0) {
    result.converged = true;
    return result;
  }

  std::vector<double> x;
  if (!warm_start.empty()) {
    detail::require(warm_start.size() == n,
                    "sparse_power_method: warm_start size mismatch");
    x.assign(warm_start.begin(), warm_start.end());
    double sum = 0.0;
    for (const double v : x) {
      detail::require(std::isfinite(v) && v >= 0.0,
                      "sparse_power_method: warm_start must be finite and "
                      "non-negative");
      sum += v;
    }
    detail::require(sum > 0.0,
                    "sparse_power_method: warm_start must have positive sum");
    (void)normalize_l1(x);
    result.warm_started = true;
  } else {
    x.assign(n, 1.0 / static_cast<double>(n));
  }
  std::vector<double> y(n, 0.0);

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    if (spmv_seconds != nullptr) {
      const util::WallTimer timer;
      op.apply(opts.damping, x, y, opts.threads);
      *spmv_seconds += timer.seconds();
    } else {
      op.apply(opts.damping, x, y, opts.threads);
    }
    const double norm = norm_l1(y);
    result.eigenvalue = norm;
    if (norm <= 0.0) {
      std::fill(y.begin(), y.end(), 1.0 / static_cast<double>(n));
      result.iterations = it + 1;
      result.converged = false;
      result.eigenvector = std::move(y);
      return result;
    }
    // normalize_l1 then distance_l1 in one pass: the same divisions and
    // the same index-ascending sum, so the same bits.
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] /= norm;
      delta += std::abs(y[i] - x[i]);
    }
    x.swap(y);
    result.iterations = it + 1;
    if (delta < opts.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.eigenvector = std::move(x);
  return result;
}

}  // namespace

PowerMethodResult sparse_power_method(const GatherOperator& op,
                                      const PowerMethodOptions& opts,
                                      std::span<const double> warm_start) {
  obs::Span span("linalg.sparse_power_method", "linalg");
  double spmv_seconds = 0.0;
  PowerMethodResult result = sparse_power_method_impl(
      op, opts, warm_start, span.active() ? &spmv_seconds : nullptr);
  if (span.active()) {
    span.arg("n", static_cast<double>(op.size()));
    span.arg("nnz", static_cast<double>(op.nnz()));
    span.arg("fill_ratio", op.fill_ratio());
    span.arg("iterations", static_cast<double>(result.iterations));
    span.arg("converged", result.converged ? 1.0 : 0.0);
    span.arg("warm_started", result.warm_started ? 1.0 : 0.0);
    span.arg("spmv_seconds", spmv_seconds);
    obs::MetricRegistry& m = obs::Recorder::instance().metrics();
    m.counter("linalg.sparse_power.calls").add();
    m.counter("linalg.sparse_power.iterations").add(result.iterations);
    m.counter("linalg.spmv.applications").add(result.iterations);
    m.counter("linalg.spmv.nnz").add(op.nnz() * result.iterations);
    if (result.warm_started) m.counter("linalg.sparse_power.warm_starts").add();
    if (!result.converged) m.counter("linalg.sparse_power.nonconverged").add();
    m.histogram("linalg.sparse_power.iters_per_call")
        .observe(static_cast<double>(result.iterations));
    m.histogram("linalg.sparse_power.fill_pct")
        .observe(100.0 * op.fill_ratio());
  }
  return result;
}

PowerMethodResult sparse_power_method(const SparseMatrix& a,
                                      const PowerMethodOptions& opts,
                                      std::span<const double> warm_start) {
  return sparse_power_method(GatherOperator(a), opts, warm_start);
}

}  // namespace svo::linalg
