#include "support/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace mmwave::common {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, Identity) {
  Matrix eye = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, MatMul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVec) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  std::vector<double> v{1, 0, -1};
  auto out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, AddSubScale) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 5.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(Matrix, MaxAbs) {
  Matrix a{{1, -7}, {3, 4}};
  EXPECT_DOUBLE_EQ(a.max_abs(), 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2, 1}, {1, 3}};
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  auto x = lu.solve({5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1, 2}, {2, 4}};
  LuFactorization lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(Lu, SolveTransposeMatchesExplicitTranspose) {
  Rng rng(17);
  const std::size_t n = 8;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
  std::vector<double> b(n);
  for (auto& x : b) x = rng.uniform(-5, 5);

  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  auto x1 = lu.solve_transpose(b);
  LuFactorization lut(a.transpose());
  ASSERT_TRUE(lut.ok());
  auto x2 = lut.solve(b);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-10);
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  Rng rng(18);
  const std::size_t n = 10;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;

  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  Matrix prod = a * lu.inverse();
  Matrix eye = Matrix::identity(n);
  prod -= eye;
  EXPECT_LT(prod.max_abs(), 1e-10);
}

TEST(Lu, RandomSolveResidualProperty) {
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(10);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2, 2);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
    std::vector<double> b(n);
    for (auto& x : b) x = rng.uniform(-10, 10);

    LuFactorization lu(a);
    ASSERT_TRUE(lu.ok()) << "trial " << trial;
    auto x = lu.solve(b);
    ASSERT_EQ(x.size(), n);
    auto ax = a * x;
    EXPECT_LT(max_abs_diff(ax, b), 1e-9) << "trial " << trial;
  }
}

TEST(Lu, NeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a{{0, 1}, {1, 0}};
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  auto x = lu.solve({2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(VectorOps, DotAndNorm) {
  std::vector<double> a{1, 2, 2};
  std::vector<double> b{2, -1, 0.5};
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
}

TEST(VectorOps, MaxAbsDiff) {
  EXPECT_DOUBLE_EQ(max_abs_diff({1, 2, 3}, {1, 4, 2}), 2.0);
  EXPECT_DOUBLE_EQ(max_abs_diff({}, {}), 0.0);
}

}  // namespace
}  // namespace mmwave::common
