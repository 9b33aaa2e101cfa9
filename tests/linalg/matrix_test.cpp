#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"

namespace rsm {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (Index r = 0; r < 3; ++r)
    for (Index c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(Matrix, ForOverwriteHasTheShapeAndKeepsWrites) {
  Matrix m = Matrix::for_overwrite(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (Index r = 0; r < 3; ++r)
    for (Index c = 0; c < 4; ++c) m(r, c) = static_cast<Real>(10 * r + c);
  const Matrix copy = m;
  EXPECT_EQ(copy(2, 3), 23.0);
  EXPECT_EQ(copy(0, 0), 0.0);
  EXPECT_TRUE(Matrix::for_overwrite(0, 5).empty());
}

TEST(Matrix, ConstructFilled) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), Error);
}

TEST(Matrix, Identity) {
  Matrix id = Matrix::identity(3);
  for (Index r = 0; r < 3; ++r)
    for (Index c = 0; c < 3; ++c) EXPECT_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9;
  EXPECT_EQ(m(1, 2), 9);
}

TEST(Matrix, ColRoundTrip) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<Real> c1 = m.col(1);
  ASSERT_EQ(c1.size(), 3u);
  EXPECT_EQ(c1[0], 2);
  EXPECT_EQ(c1[2], 6);
  m.set_col(0, std::vector<Real>{9, 8, 7});
  EXPECT_EQ(m(0, 0), 9);
  EXPECT_EQ(m(2, 0), 7);
}

TEST(Matrix, Transposed) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t(2, 1), 6);
  EXPECT_EQ(t(0, 0), 1);
}

TEST(Matrix, TransposeTwiceIsIdentityOp) {
  Rng rng(3);
  Matrix m(5, 7);
  for (Index r = 0; r < 5; ++r) rng.fill_normal(m.row(r));
  EXPECT_EQ(max_abs_diff(m.transposed().transposed(), m), 0.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 5);
  EXPECT_EQ(sum(1, 1), 5);
  Matrix diff = a - b;
  EXPECT_EQ(diff(0, 0), -3);
  Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6);
  Matrix scaled2 = 0.5 * a;
  EXPECT_EQ(scaled2(0, 1), 1);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a -= b, Error);
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1, 0, 2}, {0, 3, 0}};
  const std::vector<Real> x{1, 2, 3};
  const std::vector<Real> y = a * x;
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 7);
  EXPECT_EQ(y[1], 6);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, SetZero) {
  Matrix m(2, 2, 1.0);
  m.set_zero();
  EXPECT_EQ(m.frobenius_norm(), 0.0);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  Rng rng(11);
  Matrix m(4, 4);
  for (Index r = 0; r < 4; ++r) rng.fill_normal(m.row(r));
  EXPECT_LT(max_abs_diff(m * Matrix::identity(4), m), 1e-15);
  EXPECT_LT(max_abs_diff(Matrix::identity(4) * m, m), 1e-15);
}

}  // namespace
}  // namespace rsm
