#include "stats/lhs.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "io/crc32.hpp"
#include "stats/descriptive.hpp"

namespace rsm {
namespace {

TEST(InverseNormalCdf, KnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.8413447460685429), 1.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.9772498680518208), 2.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.0013498980316300933), -3.0, 1e-6);
}

TEST(InverseNormalCdf, Symmetry) {
  for (Real p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(inverse_normal_cdf(p), -inverse_normal_cdf(1 - p), 1e-8);
  }
}

TEST(InverseNormalCdf, DomainChecks) {
  EXPECT_THROW((void)inverse_normal_cdf(0.0), Error);
  EXPECT_THROW((void)inverse_normal_cdf(1.0), Error);
  EXPECT_THROW((void)inverse_normal_cdf(-0.5), Error);
}

TEST(Lhs, ShapeAndStratification) {
  Rng rng(1);
  const Index k = 100, n = 3;
  const Matrix s = latin_hypercube_normal(k, n, rng);
  EXPECT_EQ(s.rows(), k);
  EXPECT_EQ(s.cols(), n);
  // Stratification: each column has exactly one draw per stratum, so the
  // empirical CDF is near-perfect — sorted values must straddle the stratum
  // boundaries.
  for (Index v = 0; v < n; ++v) {
    std::vector<Real> col = s.col(v);
    std::sort(col.begin(), col.end());
    for (Index i = 0; i < k; ++i) {
      const Real lo = (i == 0) ? -10.0
                               : inverse_normal_cdf(static_cast<Real>(i) / k);
      const Real hi = (i == k - 1)
                          ? 10.0
                          : inverse_normal_cdf(static_cast<Real>(i + 1) / k);
      EXPECT_GE(col[static_cast<std::size_t>(i)], lo);
      EXPECT_LE(col[static_cast<std::size_t>(i)], hi);
    }
  }
}

TEST(Lhs, MeanVarianceBetterThanMc) {
  // LHS mean estimate has far lower variance than plain MC at equal K.
  const Index k = 50, trials = 200;
  Real lhs_sq = 0, mc_sq = 0;
  for (Index t = 0; t < trials; ++t) {
    Rng rng(static_cast<std::uint64_t>(t + 1));
    const Matrix lhs = latin_hypercube_normal(k, 1, rng);
    const Matrix mc = monte_carlo_normal(k, 1, rng);
    const Real m_lhs = mean(lhs.col(0));
    const Real m_mc = mean(mc.col(0));
    lhs_sq += m_lhs * m_lhs;
    mc_sq += m_mc * m_mc;
  }
  EXPECT_LT(lhs_sq, mc_sq / 10);
}

TEST(Lhs, MonteCarloMoments) {
  Rng rng(3);
  const Matrix s = monte_carlo_normal(20000, 2, rng);
  for (Index v = 0; v < 2; ++v) {
    const std::vector<Real> col = s.col(v);
    EXPECT_NEAR(mean(col), 0.0, 0.03);
    EXPECT_NEAR(variance(col), 1.0, 0.05);
  }
}

/// FNV-1a 64 over a matrix's sample bytes, row after row.
std::uint64_t sample_hash(const Matrix& m) {
  return io::fnv1a64(m.data(), static_cast<std::size_t>(m.size()) *
                                   sizeof(Real));
}

TEST(MonteCarloNormal, PinnedBits) {
  // Hashes an earlier build printed when every draw was one serial stream
  // of normal() calls, row after row. The draws now run on the shared
  // pool, so they must hold for any RSM_THREADS.
  {
    Rng rng(1);
    EXPECT_EQ(sample_hash(monte_carlo_normal(1000, 21310, rng)),
              0x089428539a29b8eaull);
  }
  {
    // A draw after one normal(): the cached normal pending at the call is
    // its first value, and the draw leaves its last pair's second value
    // cached.
    Rng rng(42);
    (void)rng.normal();
    EXPECT_EQ(sample_hash(monte_carlo_normal(600, 630, rng)),
              0xe3be4fdf0048727bull);
  }
}

}  // namespace
}  // namespace rsm
