/// CSR SparseMatrix semantics plus the headline sparse_power_method
/// contract: bit-identical to the dense engine on the same matrix, at
/// any thread count, and warm-startable (DESIGN.md §4i).
#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "linalg/power_method.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::linalg {
namespace {

Matrix random_row_stochastic(std::size_t n, double density,
                             util::Xoshiro256& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(density)) a(i, j) = rng.uniform(0.1, 1.0);
    }
    auto row = a.row(i);
    (void)normalize_l1(row);  // dangling rows stay zero
  }
  return a;
}

TEST(SparseMatrixTest, FromTripletsSumsDuplicatesAndDropsZeros) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 4,
      {{0, 2, 1.5}, {0, 2, 0.5}, {1, 0, 3.0}, {2, 1, 2.0}, {2, 1, -2.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 2u);  // duplicate summed, cancelling pair dropped
  EXPECT_EQ(m.at(0, 2), 2.0);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(2, 1), 0.0);
  EXPECT_EQ(m.at(0, 0), 0.0);
  EXPECT_TRUE(m.row(2).empty());
  EXPECT_DOUBLE_EQ(m.fill_ratio(), 2.0 / 12.0);
}

TEST(SparseMatrixTest, RowsAreColumnSorted) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 5, {{0, 4, 1.0}, {0, 1, 2.0}, {0, 3, 3.0}});
  const SparseMatrix::RowView r = m.row(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.cols[0], 1u);
  EXPECT_EQ(r.cols[1], 3u);
  EXPECT_EQ(r.cols[2], 4u);
  EXPECT_EQ(r.values[0], 2.0);
  EXPECT_EQ(r.values[1], 3.0);
  EXPECT_EQ(r.values[2], 1.0);
}

TEST(SparseMatrixTest, ValidatesTriplets) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               InvalidArgument);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               InvalidArgument);
  EXPECT_THROW(
      SparseMatrix::from_triplets(
          2, 2, {{0, 1, std::numeric_limits<double>::infinity()}}),
      InvalidArgument);
  EXPECT_THROW(SparseMatrix::from_triplets(
                   2, 2, {{0, 1, std::numeric_limits<double>::quiet_NaN()}}),
               InvalidArgument);
  EXPECT_THROW((void)SparseMatrix().row(0), InvalidArgument);
  EXPECT_THROW((void)SparseMatrix().at(0, 0), InvalidArgument);
}

TEST(SparseMatrixTest, RowBuilderMatchesFromTriplets) {
  util::Xoshiro256 rng(31337);
  const std::size_t rows = 40;
  const std::size_t cols = 25;
  std::vector<Triplet> triplets;
  SparseMatrix::RowBuilder built(rows, cols);
  for (std::size_t i = 0; i + 1 < rows; ++i) {  // the last row never ends
    for (std::size_t j = 0; j < cols; ++j) {
      if (!rng.bernoulli(0.2)) continue;
      const double v = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-1.0, 1.0);
      built.push(j, v);  // zeros included: not stored
      triplets.push_back({i, j, v});
    }
    built.end_row();
  }
  const SparseMatrix a = std::move(built).finish();
  const SparseMatrix b = SparseMatrix::from_triplets(rows, cols, triplets);
  ASSERT_EQ(a.rows(), rows);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t i = 0; i < rows; ++i) {
    const SparseMatrix::RowView ra = a.row(i);
    const SparseMatrix::RowView rb = b.row(i);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << i;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra.cols[k], rb.cols[k]);
      EXPECT_EQ(ra.values[k], rb.values[k]);
      EXPECT_NE(ra.values[k], 0.0);
    }
  }
}

TEST(SparseMatrixTest, RowBuilderValidates) {
  SparseMatrix::RowBuilder b(1, 3);
  b.push(1, 1.0);
  EXPECT_THROW(b.push(1, 2.0), InvalidArgument);  // column not ascending
  EXPECT_THROW(b.push(3, 2.0), InvalidArgument);  // column out of range
  EXPECT_THROW(b.push(2, std::numeric_limits<double>::infinity()),
               InvalidArgument);
  b.end_row();
  EXPECT_THROW(b.push(0, 1.0), InvalidArgument);  // no row left
  EXPECT_THROW(b.end_row(), InvalidArgument);
  const SparseMatrix m = std::move(b).finish();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.at(0, 1), 1.0);
  // A duplicate sum that overflows is not finite either.
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW(
      (void)SparseMatrix::from_triplets(1, 1, {{0, 0, big}, {0, 0, big}}),
      InvalidArgument);
}

TEST(SparseMatrixTest, DenseRoundTripIsExact) {
  util::Xoshiro256 rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix dense = random_row_stochastic(12, 0.3, rng);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    const Matrix back = sparse.to_dense();
    for (std::size_t i = 0; i < 12; ++i) {
      for (std::size_t j = 0; j < 12; ++j) {
        EXPECT_EQ(back(i, j), dense(i, j));
      }
    }
  }
}

TEST(SparseMatrixTest, TransposedPreservesEntriesAndSortsBySource) {
  util::Xoshiro256 rng(7);
  const Matrix dense = random_row_stochastic(10, 0.4, rng);
  const SparseMatrix t = SparseMatrix::from_dense(dense).transposed();
  EXPECT_EQ(t.rows(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    const SparseMatrix::RowView r = t.row(j);
    for (std::size_t k = 0; k < r.size(); ++k) {
      EXPECT_EQ(r.values[k], dense(r.cols[k], j));
      if (k > 0) {
        EXPECT_LT(r.cols[k - 1], r.cols[k]);
      }
    }
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  util::Xoshiro256 rng(11);
  const Matrix dense = random_row_stochastic(9, 0.5, rng);
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  std::vector<double> x(9);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  const std::vector<double> y = sparse.multiply(x);
  const std::vector<double> yt = sparse.multiply_transposed(x);
  for (std::size_t i = 0; i < 9; ++i) {
    double expect = 0.0;
    double expect_t = 0.0;
    for (std::size_t j = 0; j < 9; ++j) {
      expect += dense(i, j) * x[j];
      expect_t += dense(j, i) * x[j];
    }
    EXPECT_NEAR(y[i], expect, 1e-12);
    EXPECT_NEAR(yt[i], expect_t, 1e-12);
  }
  EXPECT_THROW((void)sparse.multiply(std::vector<double>(8)),
               DimensionMismatch);
  EXPECT_THROW((void)sparse.multiply_transposed(std::vector<double>(8)),
               DimensionMismatch);
}

/// Shapes at the extremes of the operator's length-ordered rows, n = 37.
std::vector<Matrix> layout_extremes(util::Xoshiro256& rng) {
  const std::size_t n = 37;
  const std::size_t hub = n / 2;
  // A star: every GSP trusts the hub, whose A^T row holds n-1 entries
  // and goes last; the hub itself trusts nobody.
  Matrix star(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != hub) star(i, hub) = 1.0;
  }
  // A cycle: every A^T row has length 1, so length order is index order.
  Matrix cycle(n, n);
  for (std::size_t i = 0; i < n; ++i) cycle(i, (i + 1) % n) = 1.0;
  // Strictly lower triangular: A^T's row j holds n-1-j entries, so the
  // rows take every length from 0 to n-1, in reverse index order.
  Matrix lower(n, n);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) lower(i, j) = rng.uniform(0.1, 1.0);
    auto row = lower.row(i);
    (void)normalize_l1(row);
  }
  // n = 1: a self-loop, and a lone GSP that trusts nobody.
  return {star, cycle, lower, Matrix::from_rows({{1.0}}), Matrix(1, 1)};
}

/// The load-bearing property for the whole sparse backend: identical
/// eigenvectors — bitwise — to the dense engine, including iteration
/// counts, over random matrices, dangling rows, the layout's extreme
/// shapes, damping choices, and pool thread counts.
TEST(SparsePowerMethodTest, BitIdenticalToDenseEngine) {
  util::Xoshiro256 rng(2024);
  std::vector<Matrix> inputs;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.index(40);
    inputs.push_back(random_row_stochastic(n, rng.uniform(0.05, 0.6), rng));
  }
  for (Matrix& shape : layout_extremes(rng)) inputs.push_back(std::move(shape));
  for (const Matrix& dense : inputs) {
    const std::size_t n = dense.rows();
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    for (const double damping : {0.0, 0.15}) {
      PowerMethodOptions opts;
      opts.damping = damping;
      const PowerMethodResult want = power_method(dense, opts);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        opts.threads = threads;
        const PowerMethodResult got = sparse_power_method(sparse, opts);
        ASSERT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);
        EXPECT_FALSE(got.warm_started);
        ASSERT_EQ(got.eigenvector.size(), want.eigenvector.size());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got.eigenvector[i], want.eigenvector[i])
              << "n=" << n << " damping=" << damping
              << " threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

/// `m` with every non-empty row divided by its sum.
SparseMatrix row_normalized(const SparseMatrix& m) {
  SparseMatrix::RowBuilder out(m.rows(), m.cols(), m.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const SparseMatrix::RowView r = m.row(i);
    double sum = 0.0;
    for (const double v : r.values) sum += v;
    for (std::size_t k = 0; k < r.size(); ++k) {
      out.push(r.cols[k], r.values[k] / sum);
    }
    out.end_row();
  }
  return std::move(out).finish();
}

/// The gather spmv splits over the pool only from 2048 rows up: a
/// 3000-GSP, degree-8 graph where every tenth GSP rates nobody (dangling
/// rows of A) and nobody rates the GSPs numbered 3 mod 10 (empty rows of
/// A^T). Threads 2 and 4 must give the iterations and eigenvector bits
/// of threads 1, cold and after a re-weight patch.
TEST(SparsePowerMethodTest, PooledGatherMatchesSerial) {
  util::Xoshiro256 rng(3000);
  const std::size_t n = 3000;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 == 0) continue;
    for (std::size_t t = 0; t < 8; ++t) {
      const std::size_t j = rng.index(n);
      if (j != i && j % 10 != 3) {
        triplets.push_back({i, j, rng.uniform(0.1, 1.0)});
      }
    }
  }
  const SparseMatrix a =
      row_normalized(SparseMatrix::from_triplets(n, n, triplets));
  GatherOperator op(a);
  ASSERT_EQ(op.dangling().size(), n / 10);
  ASSERT_TRUE(op.incoming(3).empty());

  const auto expect_pool_matches_serial = [](const GatherOperator& g) {
    PowerMethodOptions opts;
    const PowerMethodResult serial = sparse_power_method(g, opts);
    ASSERT_TRUE(serial.converged);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      opts.threads = threads;
      const PowerMethodResult pooled = sparse_power_method(g, opts);
      EXPECT_EQ(pooled.iterations, serial.iterations) << "threads=" << threads;
      EXPECT_EQ(pooled.eigenvector, serial.eigenvector)
          << "threads=" << threads;
    }
  };
  expect_pool_matches_serial(op);

  // Same columns, new weights, on every seventh row.
  std::vector<std::size_t> rows;
  std::vector<Triplet> patch;
  for (std::size_t i = 1; i < n; i += 7) {
    const SparseMatrix::RowView r = a.row(i);
    for (const std::size_t j : r.cols) {
      patch.push_back({rows.size(), j, rng.uniform(0.1, 1.0)});
    }
    rows.push_back(i);
  }
  ASSERT_TRUE(op.reweight_rows(
      rows, row_normalized(SparseMatrix::from_triplets(rows.size(), n,
                                                       std::move(patch)))));
  expect_pool_matches_serial(op);
}

TEST(SparsePowerMethodTest, EmptyAndValidation) {
  const PowerMethodResult empty = sparse_power_method(SparseMatrix());
  EXPECT_TRUE(empty.converged);
  EXPECT_TRUE(empty.eigenvector.empty());

  EXPECT_THROW((void)sparse_power_method(
                   SparseMatrix::from_triplets(2, 3, {{0, 1, 1.0}})),
               InvalidArgument);  // non-square
  EXPECT_THROW((void)sparse_power_method(
                   SparseMatrix::from_triplets(2, 2, {{0, 1, -1.0}})),
               InvalidArgument);  // negative entry

  const GatherOperator op(SparseMatrix::from_triplets(2, 2, {{0, 1, 1.0}}));
  EXPECT_THROW((void)op.incoming(2), InvalidArgument);
  std::vector<double> y(2);
  EXPECT_THROW(op.apply(0.15, std::vector<double>(3, 0.5), y, 1),
               DimensionMismatch);
}

void expect_same_operator(const GatherOperator& a, const GatherOperator& b) {
  EXPECT_EQ(a.dangling(), b.dangling());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t j = 0; j < a.size(); ++j) {
    const SparseMatrix::RowView ra = a.incoming(j);
    const SparseMatrix::RowView rb = b.incoming(j);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << j;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra.cols[k], rb.cols[k]);
      EXPECT_EQ(ra.values[k], rb.values[k]) << "entry (" << j << ", " << k
                                            << ")";
    }
  }
}

/// `a` with the rows `rows` replaced by the same rows of `b`.
SparseMatrix splice_rows(const SparseMatrix& a, const SparseMatrix& b,
                         const std::vector<std::size_t>& rows) {
  SparseMatrix::RowBuilder out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const bool patched = std::find(rows.begin(), rows.end(), i) != rows.end();
    const SparseMatrix::RowView r = patched ? b.row(i) : a.row(i);
    for (std::size_t k = 0; k < r.size(); ++k) out.push(r.cols[k], r.values[k]);
    out.end_row();
  }
  return std::move(out).finish();
}

/// The rows `rows` of `m`, in that order.
SparseMatrix select_rows(const SparseMatrix& m,
                         const std::vector<std::size_t>& rows) {
  SparseMatrix::RowBuilder out(rows.size(), m.cols());
  for (const std::size_t i : rows) {
    const SparseMatrix::RowView r = m.row(i);
    for (std::size_t k = 0; k < r.size(); ++k) out.push(r.cols[k], r.values[k]);
    out.end_row();
  }
  return std::move(out).finish();
}

TEST(SparsePowerMethodTest, PreparedOperatorIteratesLikeTheOneShotForm) {
  util::Xoshiro256 rng(2718);
  const SparseMatrix a =
      SparseMatrix::from_dense(random_row_stochastic(90, 0.08, rng));
  const GatherOperator op(a);
  const PowerMethodResult once = sparse_power_method(a);
  const PowerMethodResult kept = sparse_power_method(op);
  EXPECT_EQ(kept.iterations, once.iterations);
  EXPECT_EQ(kept.eigenvector, once.eigenvector);
  // Iterating does not consume the operator: a second run is identical.
  EXPECT_EQ(sparse_power_method(op).eigenvector, once.eigenvector);
}

TEST(SparsePowerMethodTest, ReweightedOperatorEqualsAFreshlyPreparedOne) {
  util::Xoshiro256 rng(1618);
  const std::size_t n = 120;
  const Matrix dense = random_row_stochastic(n, 0.06, rng);
  const SparseMatrix a = SparseMatrix::from_dense(dense);
  // Same pattern, new weights: every stored entry re-drawn, rows
  // re-normalized, dangling rows kept empty.
  Matrix reweighted = dense;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (reweighted(i, j) != 0.0) reweighted(i, j) = rng.uniform(0.1, 1.0);
    }
    auto row = reweighted.row(i);
    (void)normalize_l1(row);
  }
  const SparseMatrix b = SparseMatrix::from_dense(reweighted);
  const std::vector<std::size_t> rows = {0, 3, 17, 64, 119};

  GatherOperator op(a);
  ASSERT_TRUE(op.reweight_rows(rows, select_rows(b, rows)));
  expect_same_operator(op, GatherOperator(splice_rows(a, b, rows)));
  EXPECT_EQ(sparse_power_method(op).eigenvector,
            sparse_power_method(splice_rows(a, b, rows)).eigenvector);
}

TEST(SparsePowerMethodTest, ReweightRefusesColumnChangesAndWritesNothing) {
  // Row 0 trusts 1 and 2, row 1 trusts 0, row 2 trusts nobody.
  const SparseMatrix a = SparseMatrix::from_triplets(
      3, 3, {{0, 1, 0.5}, {0, 2, 0.5}, {1, 0, 1.0}});
  const auto patch = [](std::vector<Triplet> row) {
    for (Triplet& t : row) t.row = 0;
    return SparseMatrix::from_triplets(1, 3, std::move(row));
  };
  GatherOperator op(a);
  const std::vector<std::size_t> row0 = {0};
  const std::vector<std::size_t> row2 = {2};
  // An entry added, dropped, or moved to another column.
  EXPECT_FALSE(op.reweight_rows(
      row0, patch({{0, 0, 0.2}, {0, 1, 0.4}, {0, 2, 0.4}})));
  EXPECT_FALSE(op.reweight_rows(row0, patch({{0, 1, 1.0}})));
  EXPECT_FALSE(op.reweight_rows(row0, patch({{0, 0, 0.5}, {0, 1, 0.5}})));
  // A dangling row gaining an entry; a row losing all of them.
  EXPECT_FALSE(op.reweight_rows(row2, patch({{0, 1, 1.0}})));
  EXPECT_FALSE(op.reweight_rows(row0, patch({})));
  // A valid first row does not let a bad second row through half-done.
  const std::vector<std::size_t> rows01 = {0, 1};
  EXPECT_FALSE(op.reweight_rows(
      rows01, SparseMatrix::from_triplets(
                  2, 3, {{0, 1, 0.25}, {0, 2, 0.75}, {1, 2, 1.0}})));
  expect_same_operator(op, GatherOperator(a));

  EXPECT_THROW((void)op.reweight_rows(row0, patch({{0, 1, -0.5}, {0, 2, 1.5}})),
               InvalidArgument);  // negative
  EXPECT_THROW((void)op.reweight_rows(rows01, patch({{0, 1, 1.0}})),
               InvalidArgument);  // rows vs patch shape
  const std::vector<std::size_t> row3 = {3};
  EXPECT_THROW((void)op.reweight_rows(row3, patch({})), InvalidArgument);
  expect_same_operator(op, GatherOperator(a));

  EXPECT_TRUE(op.reweight_rows(row0, patch({{0, 1, 0.25}, {0, 2, 0.75}})));
  // A(0, 1) and A(0, 2) are the only entries of A^T's rows 1 and 2.
  EXPECT_EQ(op.incoming(1).values[0], 0.25);
  EXPECT_EQ(op.incoming(2).values[0], 0.75);
}

TEST(SparsePowerMethodTest, WarmStartConvergesToSameFixedPointFaster) {
  util::Xoshiro256 rng(5150);
  const std::size_t n = 400;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < 8; ++t) {
      const std::size_t j = rng.index(n);
      if (j != i) triplets.push_back({i, j, rng.uniform(0.1, 1.0)});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, triplets);
  PowerMethodOptions opts;
  opts.epsilon = 1e-10;
  const PowerMethodResult cold = sparse_power_method(a, opts);
  ASSERT_TRUE(cold.converged);

  // Restarting at the converged vector terminates (nearly) immediately
  // and flags the warm start.
  const PowerMethodResult warm =
      sparse_power_method(a, opts, cold.eigenvector);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations / 2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(warm.eigenvector[i], cold.eigenvector[i], opts.epsilon);
  }
}

TEST(SparsePowerMethodTest, WarmStartValidation) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{1.0}),
      InvalidArgument);  // size mismatch
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{1.0, -0.5}),
      InvalidArgument);  // negative
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{0.0, 0.0}),
      InvalidArgument);  // zero sum
  EXPECT_THROW(
      (void)sparse_power_method(
          a, {}, std::vector<double>{std::nan(""), 1.0}),
      InvalidArgument);  // non-finite
}

}  // namespace
}  // namespace svo::linalg
