#include "linalg/cholesky.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

/// Random SPD matrix A = B'B + n*I.
Matrix random_spd(Index n, Rng& rng) {
  Matrix b(n, n);
  for (Index r = 0; r < n; ++r) rng.fill_normal(b.row(r));
  Matrix a = gram(b);
  for (Index i = 0; i < n; ++i) a(i, i) += static_cast<Real>(n);
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(31);
  const Matrix a = random_spd(8, rng);
  const CholeskyFactorization chol(a);
  const Matrix l = chol.l();
  EXPECT_LT(max_abs_diff(l * l.transposed(), a), 1e-10);
}

TEST(Cholesky, FactorIsLowerTriangular) {
  Rng rng(32);
  const Matrix a = random_spd(6, rng);
  const Matrix l = CholeskyFactorization(a).l();
  for (Index i = 0; i < 6; ++i)
    for (Index j = i + 1; j < 6; ++j) EXPECT_EQ(l(i, j), 0.0);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Rng rng(33);
  const Matrix a = random_spd(10, rng);
  const std::vector<Real> x_true = rng.normal_vector(10);
  const std::vector<Real> b = a * x_true;
  const std::vector<Real> x = CholeskyFactorization(a).solve(b);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, TriangularSolvesCompose) {
  Rng rng(34);
  const Matrix a = random_spd(7, rng);
  const CholeskyFactorization chol(a);
  const std::vector<Real> b = rng.normal_vector(7);
  const std::vector<Real> via_parts = chol.solve_upper(chol.solve_lower(b));
  const std::vector<Real> direct = chol.solve(b);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_DOUBLE_EQ(via_parts[i], direct[i]);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactorization{a}, Error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(CholeskyFactorization{Matrix(2, 3)}, Error);
}

TEST(Cholesky, LogDeterminant) {
  const Matrix a{{4, 0}, {0, 9}};
  EXPECT_NEAR(CholeskyFactorization(a).log_determinant(), std::log(36.0),
              1e-12);
}

TEST(Cholesky, IdentityFactorsToIdentity) {
  const Matrix l = CholeskyFactorization(Matrix::identity(4)).l();
  EXPECT_LT(max_abs_diff(l, Matrix::identity(4)), 1e-15);
}

TEST(Cholesky, AppendedFactorEqualsBatchFactorBitForBit) {
  Rng rng(35);
  const Matrix a = random_spd(9, rng);
  const Matrix batch = CholeskyFactorization(a).l();
  CholeskyFactorization grown(9);
  EXPECT_EQ(grown.size(), 0);
  for (Index j = 0; j < 9; ++j)
    ASSERT_TRUE(grown.append(a.row(j).first(static_cast<std::size_t>(j)),
                             a(j, j), 1e-12));
  const Matrix l = grown.l();
  ASSERT_EQ(l.rows(), 9);
  for (Index i = 0; i < 9; ++i)
    for (Index j = 0; j < 9; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(l(i, j)),
                std::bit_cast<std::uint64_t>(batch(i, j)))
          << i << "," << j;
}

TEST(Cholesky, RejectedAppendLeavesFactorUnchanged) {
  // Unit columns x0, x1 with x0'x1 = 0.5; x0 + x1 lies in their span
  // (cross products 1.5, 1.5, squared norm 3), so its pivot is ~0 and it
  // must be refused, leaving the factor and its solves as they were.
  CholeskyFactorization chol(3);
  ASSERT_TRUE(chol.append({}, 1.0, 1e-12));
  ASSERT_TRUE(chol.append(std::vector<Real>{0.5}, 1.0, 1e-12));
  const Matrix before = chol.l();
  const std::vector<Real> solved = chol.solve(std::vector<Real>{1, 2});
  EXPECT_FALSE(chol.append(std::vector<Real>{1.5, 1.5}, 3.0, 1e-12));
  EXPECT_EQ(chol.size(), 2);
  EXPECT_EQ(max_abs_diff(chol.l(), before), 0.0);
  EXPECT_EQ(chol.solve(std::vector<Real>{1, 2}), solved);
  // A NaN pivot is refused too, at any tolerance.
  EXPECT_FALSE(chol.append(std::vector<Real>{0.0, 0.0}, std::nan(""), 0.0));
  EXPECT_EQ(chol.size(), 2);
  chol.clear();
  EXPECT_EQ(chol.size(), 0);
  EXPECT_TRUE(chol.append({}, 4.0, 0.0));
  EXPECT_EQ(chol.l()(0, 0), 2.0);
}

TEST(Cholesky, OneShotHelper) {
  const Matrix a{{2, 0}, {0, 4}};
  const std::vector<Real> x = cholesky_solve(a, std::vector<Real>{2, 8});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

}  // namespace
}  // namespace rsm
