#include "support/stagewise.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/lar.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

std::vector<Real> synthesize(const Matrix& g, const std::vector<Real>& alpha) {
  std::vector<Real> y(static_cast<std::size_t>(g.rows()), 0.0);
  for (Index m = 0; m < g.cols(); ++m) {
    if (alpha[static_cast<std::size_t>(m)] == 0.0) continue;
    axpy(alpha[static_cast<std::size_t>(m)], g.col(m), y);
  }
  return y;
}

TEST(Stagewise, ResidualDecreases) {
  Rng rng(701);
  const Matrix g = monte_carlo_normal(50, 60, rng);
  const std::vector<Real> f = rng.normal_vector(50);
  const SolverPath path =
      StagewiseSolver().fit_path(MaterializedSource(g), f, 10);
  ASSERT_GT(path.num_steps(), 1);
  for (std::size_t t = 1; t < path.residual_norms.size(); ++t)
    EXPECT_LE(path.residual_norms[t], path.residual_norms[t - 1] + 1e-12);
}

TEST(Stagewise, FindsDominantColumnFirst) {
  Rng rng(702);
  const Matrix g = monte_carlo_normal(100, 40, rng);
  std::vector<Real> alpha(40, 0.0);
  alpha[23] = 5.0;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path =
      StagewiseSolver().fit_path(MaterializedSource(g), f, 2);
  const std::vector<Index> sup = path.support(0);
  ASSERT_FALSE(sup.empty());
  EXPECT_TRUE(std::find(sup.begin(), sup.end(), 23) != sup.end());
}

TEST(Stagewise, ConvergesToSparseTruth) {
  Rng rng(703);
  const Index k = 80, m = 150;
  const Matrix g = monte_carlo_normal(k, m, rng);
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  alpha[10] = 1.5;
  alpha[99] = -1.0;
  const std::vector<Real> f = synthesize(g, alpha);
  StagewiseSolver::Options opt;
  opt.epsilon = 0.02;
  opt.steps_per_record = 200;
  const SolverPath path =
      StagewiseSolver(opt).fit_path(MaterializedSource(g), f, 10);
  const std::vector<Real> dense =
      path.dense_coefficients(path.num_steps() - 1, m);
  EXPECT_NEAR(dense[10], 1.5, 0.1);
  EXPECT_NEAR(dense[99], -1.0, 0.1);
  EXPECT_LT(path.residual_norms.back(), 0.1 * nrm2(f));
}

TEST(Stagewise, SmallEpsilonApproachesLarPath) {
  // Efron et al.: as epsilon -> 0, stagewise traces the LAR path. Compare
  // the coefficient vectors at matched residual norms.
  Rng rng(704);
  const Index k = 60, m = 15;
  const Matrix g = monte_carlo_normal(k, m, rng);
  const std::vector<Real> f = rng.normal_vector(k);

  const SolverPath lar = LarSolver().fit_path(MaterializedSource(g), f, 5);
  ASSERT_GE(lar.num_steps(), 3);
  const Real target_residual = lar.residual_norms[2];
  const std::vector<Real> lar_dense = lar.dense_coefficients(2, m);

  StagewiseSolver::Options opt;
  opt.epsilon = 0.002;
  opt.steps_per_record = 25;
  const SolverPath stage =
      StagewiseSolver(opt).fit_path(MaterializedSource(g), f, 400);
  // Find the stagewise record closest in residual norm.
  Index best = 0;
  Real best_gap = 1e300;
  for (Index t = 0; t < stage.num_steps(); ++t) {
    const Real gap = std::abs(stage.residual_norms[static_cast<std::size_t>(t)] -
                              target_residual);
    if (gap < best_gap) {
      best_gap = gap;
      best = t;
    }
  }
  const std::vector<Real> stage_dense = stage.dense_coefficients(best, m);
  for (Index j = 0; j < m; ++j)
    EXPECT_NEAR(stage_dense[static_cast<std::size_t>(j)],
                lar_dense[static_cast<std::size_t>(j)], 0.08)
        << "j=" << j;
}

TEST(Stagewise, ZeroTargetEmptyPath) {
  Rng rng(705);
  const Matrix g = monte_carlo_normal(20, 10, rng);
  const std::vector<Real> f(20, 0.0);
  const SolverPath path =
      StagewiseSolver().fit_path(MaterializedSource(g), f, 5);
  EXPECT_EQ(path.num_steps(), 0);
}

TEST(Stagewise, InvalidOptionsThrow) {
  Rng rng(706);
  const Matrix g = monte_carlo_normal(10, 5, rng);
  const std::vector<Real> f = rng.normal_vector(10);
  StagewiseSolver::Options opt;
  opt.epsilon = 0;
  EXPECT_THROW((void)StagewiseSolver(opt).fit_path(MaterializedSource(g), f, 3),
               Error);
}

}  // namespace
}  // namespace rsm
