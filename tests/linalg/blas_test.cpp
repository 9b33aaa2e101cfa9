#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

namespace rsm {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index r = 0; r < rows; ++r) rng.fill_normal(m.row(r));
  return m;
}

/// Reference O(n^3) product without blocking.
Matrix naive_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < b.cols(); ++j) {
      Real s = 0;
      for (Index k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

TEST(Blas, GemvMatchesManual) {
  Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  const std::vector<Real> x = rng.normal_vector(4);
  std::vector<Real> y(6);
  gemv(a, x, y);
  for (Index r = 0; r < 6; ++r) {
    Real expected = 0;
    for (Index c = 0; c < 4; ++c)
      expected += a(r, c) * x[static_cast<std::size_t>(c)];
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], expected, 1e-12);
  }
}

TEST(Blas, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(7, 5, rng);
  const std::vector<Real> x = rng.normal_vector(7);
  std::vector<Real> y1(5), y2(5);
  gemv_transposed(a, x, y1);
  gemv(a.transposed(), x, y2);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

/// The row-by-row axpy sweep gemv_transposed replaced; the split,
/// register-blocked scan must reproduce it bit for bit.
std::vector<Real> axpy_scan(const Matrix& a, std::span<const Real> x,
                            std::span<const Index> rows) {
  std::vector<Real> y(static_cast<std::size_t>(a.cols()), Real{0});
  for (std::size_t i = 0; i < x.size(); ++i)
    axpy(x[i], a.row(rows.empty() ? static_cast<Index>(i) : rows[i]), y);
  return y;
}

// K covers the tails of the four-row blocking; M sits just below and at
// the size where the scan splits in two (2 * kScanSliceWork multiply-adds)
// and well above it, never on a cache-line multiple;
// y starts on and off a cache-line boundary. Thread counts 1, 2, 3 and 7
// are the calling thread plus 0, 1, 2 and 6 pool workers.
TEST(Blas, GemvTransposedIsBitIdenticalToRowSweepForAnyThreadCount) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int workers : {1, 2, 6})
    pools.push_back(
        std::make_unique<ThreadPool>(ThreadPool::Options{workers, 256}));
  Rng rng(6);
  for (const Index k : {1, 3, 4, 5, 750}) {
    const Index work = static_cast<Index>(kScanSliceWork);
    const Index split = (2 * work + k - 1) / k | 1;  // fewest that split
    for (const Index m : {split - 2, split, 7 * work / k | 1}) {
      ASSERT_NE(m % 8, 0);
      const Matrix whole = random_matrix(k, m, rng);
      const Matrix a = random_matrix(k + 3, m, rng);
      const std::vector<Real> x = rng.normal_vector(k);
      std::vector<Index> shuffled(static_cast<std::size_t>(k + 3));
      std::iota(shuffled.begin(), shuffled.end(), Index{0});
      rng.shuffle(shuffled);
      shuffled.resize(static_cast<std::size_t>(k));
      std::vector<Real> buffer(static_cast<std::size_t>(m) + 8);
      for (const bool listed : {false, true}) {
        const std::span<const Index> rows =
            listed ? std::span<const Index>(shuffled)
                   : std::span<const Index>();
        const Matrix& g = listed ? a : whole;
        const std::vector<Real> expected = axpy_scan(g, x, rows);
        for (const std::size_t offset : {0, 3}) {
          const std::span<Real> y(buffer.data() + offset,
                                  static_cast<std::size_t>(m));
          for (const auto& pool : pools) {
            std::fill(buffer.begin(), buffer.end(), Real{-1});
            gemv_transposed(g, x, y, rows, pool.get());
            EXPECT_EQ(std::memcmp(y.data(), expected.data(),
                                  y.size() * sizeof(Real)),
                          0)
                << "K " << k << " M " << m << " listed " << listed
                << " offset " << offset << " threads "
                << (pool ? pool->num_workers() + 1 : 1);
          }
          std::fill(buffer.begin(), buffer.end(), Real{-1});
          gemv_transposed(g, x, y, rows);
          EXPECT_EQ(std::memcmp(y.data(), expected.data(),
                                y.size() * sizeof(Real)),
                    0)
              << "K " << k << " M " << m << " listed " << listed
              << " on the shared pool";
        }
      }
    }
  }
}

// Parameterized sweep over shapes, including block-boundary sizes.
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c = a * b;
  EXPECT_LT(max_abs_diff(c, naive_product(a, b)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 2},
                      std::tuple{16, 16, 16}, std::tuple{63, 64, 65},
                      std::tuple{64, 65, 63}, std::tuple{65, 63, 64},
                      std::tuple{128, 40, 70}, std::tuple{1, 100, 1}));

TEST(Blas, GramMatchesTransposeProduct) {
  Rng rng(4);
  const Matrix a = random_matrix(30, 12, rng);
  const Matrix g = gram(a);
  EXPECT_LT(max_abs_diff(g, a.transposed() * a), 1e-10);
}

TEST(Blas, GramIsSymmetric) {
  Rng rng(5);
  const Matrix a = random_matrix(20, 9, rng);
  const Matrix g = gram(a);
  EXPECT_LT(max_abs_diff(g, g.transposed()), 1e-14);
}

TEST(Blas, GemmShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  EXPECT_THROW(a * b, Error);
}

}  // namespace
}  // namespace rsm
