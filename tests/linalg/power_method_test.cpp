#include "linalg/power_method.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "linalg/sparse.hpp"
#include "util/rng.hpp"

namespace svo::linalg {
namespace {

PowerMethodOptions no_damping() {
  PowerMethodOptions o;
  o.damping = 0.0;
  return o;
}

TEST(PowerMethodTest, TwoStateChainAnalyticStationary) {
  // Row-stochastic P = [[0.9, 0.1], [0.5, 0.5]]; stationary distribution
  // pi solves pi P = pi: pi = (5/6, 1/6).
  const Matrix a = Matrix::from_rows({{0.9, 0.1}, {0.5, 0.5}});
  const PowerMethodResult r = power_method(a, no_damping());
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.eigenvector.size(), 2u);
  EXPECT_NEAR(r.eigenvector[0], 5.0 / 6.0, 1e-7);
  EXPECT_NEAR(r.eigenvector[1], 1.0 / 6.0, 1e-7);
  EXPECT_NEAR(r.eigenvalue, 1.0, 1e-9);
}

TEST(PowerMethodTest, SymmetricDoublyStochasticIsUniform) {
  const Matrix a = Matrix::from_rows(
      {{0.0, 0.5, 0.5}, {0.5, 0.0, 0.5}, {0.5, 0.5, 0.0}});
  const PowerMethodResult r = power_method(a, no_damping());
  ASSERT_TRUE(r.converged);
  for (const double x : r.eigenvector) EXPECT_NEAR(x, 1.0 / 3.0, 1e-7);
}

TEST(PowerMethodTest, DanglingRowTreatedAsUniform) {
  // Node 1 trusts nobody: its row is zero. With the PageRank patch the
  // chain is 0 -> 1 -> (uniform); stationary = (1/3? ...) — we only check
  // structural properties: convergence, normalization, positivity.
  const Matrix a = Matrix::from_rows({{0.0, 1.0}, {0.0, 0.0}});
  const PowerMethodResult r = power_method(a, no_damping());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvector[0] + r.eigenvector[1], 1.0, 1e-9);
  EXPECT_GT(r.eigenvector[0], 0.0);
  EXPECT_GT(r.eigenvector[1], 0.0);
  // Node 1 receives all of node 0's trust plus half the dangling mass:
  // it must rank strictly higher.
  EXPECT_GT(r.eigenvector[1], r.eigenvector[0]);
}

TEST(PowerMethodTest, DampingHandlesPeriodicChain) {
  // The 2-cycle is periodic: undamped, an iterate other than the uniform
  // fixed point swaps its entries every step and must hit the cap. The
  // dense loop always starts uniform, so the undamped case runs through
  // the sparse twin from a warm start.
  const Matrix a = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
  const std::vector<double> start{0.7, 0.3};
  PowerMethodOptions strict = no_damping();
  strict.max_iterations = 500;
  const PowerMethodResult undamped =
      sparse_power_method(SparseMatrix::from_dense(a), strict, start);
  EXPECT_TRUE(undamped.warm_started);
  EXPECT_FALSE(undamped.converged);
  EXPECT_EQ(undamped.iterations, 500u);

  // With damping the same start converges to uniform, and so does a
  // 3-cycle.
  PowerMethodOptions damped;
  damped.damping = 0.15;
  const PowerMethodResult two =
      sparse_power_method(SparseMatrix::from_dense(a), damped, start);
  EXPECT_TRUE(two.converged);
  for (const double x : two.eigenvector) EXPECT_NEAR(x, 0.5, 1e-6);
  const Matrix b = Matrix::from_rows(
      {{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}});
  const PowerMethodResult r = power_method(b, damped);
  EXPECT_TRUE(r.converged);
  for (const double x : r.eigenvector) EXPECT_NEAR(x, 1.0 / 3.0, 1e-6);
}

TEST(PowerMethodTest, EmptyMatrixConvergesEmpty) {
  const Matrix empty;
  const PowerMethodResult r = power_method(empty);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.eigenvector.empty());
}

TEST(PowerMethodTest, SingleNodeIsTrivial) {
  const Matrix a = Matrix::from_rows({{0.0}});
  const PowerMethodResult r = power_method(a, no_damping());
  ASSERT_EQ(r.eigenvector.size(), 1u);
  EXPECT_NEAR(r.eigenvector[0], 1.0, 1e-12);
}

TEST(PowerMethodTest, RejectsBadInput) {
  EXPECT_THROW((void)power_method(Matrix(2, 3)), InvalidArgument);
  const Matrix neg = Matrix::from_rows({{-1.0}});
  EXPECT_THROW((void)power_method(neg), InvalidArgument);
  PowerMethodOptions bad;
  bad.epsilon = 0.0;
  EXPECT_THROW((void)power_method(Matrix::identity(2), bad), InvalidArgument);
  bad = {};
  bad.damping = 1.0;
  EXPECT_THROW((void)power_method(Matrix::identity(2), bad), InvalidArgument);
}

TEST(PowerMethodTest, IterationCapReportsNonConvergence) {
  const Matrix a = Matrix::from_rows({{0.9, 0.1}, {0.5, 0.5}});
  PowerMethodOptions opts = no_damping();
  opts.max_iterations = 1;
  const PowerMethodResult r = power_method(a, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

/// Property sweep: for random row-stochastic matrices the result is an
/// L1-normalized non-negative fixed point of the (damped) operator.
class PowerMethodPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PowerMethodPropertyTest, FixedPointProperties) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.index(8);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform();
      sum += a(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) a(i, j) /= sum;  // stochastic row
  }
  PowerMethodOptions opts;
  opts.damping = 0.15;
  opts.epsilon = 1e-12;
  const PowerMethodResult r = power_method(a, opts);
  ASSERT_TRUE(r.converged);
  double sum = 0.0;
  for (const double x : r.eigenvector) {
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Verify the fixed point: x == (1-d) A^T x + d/n.
  const std::vector<double> ax = a.multiply_transposed(r.eigenvector);
  for (std::size_t j = 0; j < n; ++j) {
    const double expected =
        (1.0 - opts.damping) * ax[j] + opts.damping / static_cast<double>(n);
    EXPECT_NEAR(r.eigenvector[j], expected, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStochastic, PowerMethodPropertyTest,
                         ::testing::Range(1, 21));

TEST(PowerMethodOptionsTest, ValidateAcceptsDefaultsAndSaneKnobs) {
  EXPECT_NO_THROW(PowerMethodOptions{}.validate());
  PowerMethodOptions o;
  o.epsilon = 1e-3;
  o.max_iterations = 1;
  o.damping = 0.0;
  o.threads = 8;
  EXPECT_NO_THROW(o.validate());
}

TEST(PowerMethodOptionsTest, ValidateRejectsEachBadKnob) {
  const auto expect_invalid = [](auto mutate) {
    PowerMethodOptions o;
    mutate(o);
    EXPECT_THROW(o.validate(), InvalidArgument);
    // The engines surface the same error before touching the matrix.
    const Matrix a = Matrix::from_rows({{0.0, 1.0}, {1.0, 0.0}});
    EXPECT_THROW((void)power_method(a, o), InvalidArgument);
  };
  expect_invalid([](PowerMethodOptions& o) { o.epsilon = 0.0; });
  expect_invalid([](PowerMethodOptions& o) { o.epsilon = -1e-9; });
  expect_invalid([](PowerMethodOptions& o) {
    o.epsilon = std::numeric_limits<double>::quiet_NaN();
  });
  expect_invalid([](PowerMethodOptions& o) {
    o.epsilon = std::numeric_limits<double>::infinity();
  });
  expect_invalid([](PowerMethodOptions& o) { o.max_iterations = 0; });
  expect_invalid([](PowerMethodOptions& o) { o.damping = -0.1; });
  expect_invalid([](PowerMethodOptions& o) { o.damping = 1.0; });
  expect_invalid([](PowerMethodOptions& o) {
    o.damping = std::numeric_limits<double>::quiet_NaN();
  });
  expect_invalid([](PowerMethodOptions& o) { o.threads = 0; });
}

}  // namespace
}  // namespace svo::linalg
