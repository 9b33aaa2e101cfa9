#include "core/star.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/omp.hpp"
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

TEST(Star, SelectsDominantColumnFirst) {
  Rng rng(201);
  const Matrix g = monte_carlo_normal(300, 40, rng);
  std::vector<Real> alpha(40, 0.0);
  alpha[13] = 5.0;
  alpha[25] = 0.3;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = StarSolver().fit_path(MaterializedSource(g), f, 2);
  EXPECT_EQ(path.selection_order[0], 13);
}

TEST(Star, SingleOrthogonalColumnExact) {
  // With one active column, STAR's projection coefficient is already the LS
  // solution: residual must vanish for a 1-sparse target.
  Rng rng(202);
  const Matrix g = monte_carlo_normal(100, 20, rng);
  std::vector<Real> alpha(20, 0.0);
  alpha[4] = 2.5;
  const std::vector<Real> f = synthesize(g, alpha);
  const SolverPath path = StarSolver().fit_path(MaterializedSource(g), f, 1);
  EXPECT_NEAR(path.coefficients[0][0], 2.5, 1e-9);
  EXPECT_LT(path.residual_norms[0], 1e-9);
}

TEST(Star, ResidualNormsNonIncreasing) {
  // Each step subtracts the projection on the selected column, which can
  // never increase the residual.
  Rng rng(203);
  const Matrix g = monte_carlo_normal(60, 100, rng);
  const std::vector<Real> f = rng.normal_vector(60);
  const SolverPath path = StarSolver().fit_path(MaterializedSource(g), f, 25);
  for (std::size_t t = 1; t < path.residual_norms.size(); ++t)
    EXPECT_LE(path.residual_norms[t], path.residual_norms[t - 1] + 1e-12);
}

TEST(Star, WorseThanOmpOnCorrelatedColumns) {
  // The paper's key comparison: STAR skips the re-fit (Step 6), so with
  // correlated basis vectors its residual after lambda steps is larger than
  // OMP's. Build correlated columns explicitly.
  Rng rng(204);
  const Index k = 80, m = 40;
  Matrix g = monte_carlo_normal(k, m, rng);
  // Make columns 0..9 strongly correlated with each other.
  const std::vector<Real> common = rng.normal_vector(k);
  for (Index j = 0; j < 10; ++j) {
    std::vector<Real> col = g.col(j);
    axpy(2.0, common, col);
    g.set_col(j, col);
  }
  std::vector<Real> alpha(static_cast<std::size_t>(m), 0.0);
  alpha[0] = 1.0;
  alpha[3] = -1.2;
  alpha[7] = 0.8;
  const std::vector<Real> f = synthesize(g, alpha);

  const SolverPath star = StarSolver().fit_path(MaterializedSource(g), f, 10);
  const SolverPath omp = OmpSolver().fit_path(MaterializedSource(g), f, 10);
  const Real star_res = star.residual_norms.back();
  const Real omp_res = omp.residual_norms.back();
  EXPECT_LT(omp_res, 1e-8);           // OMP nails it within 10 steps
  EXPECT_GT(star_res, 10 * omp_res);  // STAR is left with real residual
}

TEST(Star, MayReselectColumns) {
  // With correlated columns STAR revisits earlier selections to refine
  // coefficients — duplicates are legal in its selection order.
  Rng rng(205);
  const Index k = 50;
  Matrix g(k, 3);
  const std::vector<Real> base = rng.normal_vector(k);
  std::vector<Real> c1 = base;
  for (Real& v : c1) v += 0.3 * rng.normal();
  std::vector<Real> c2 = rng.normal_vector(k);
  g.set_col(0, base);
  g.set_col(1, c1);
  g.set_col(2, c2);
  std::vector<Real> f = g.col(0);
  axpy(0.9, g.col(1), f);
  const SolverPath path = StarSolver().fit_path(MaterializedSource(g), f, 12);
  std::set<Index> distinct(path.selection_order.begin(),
                           path.selection_order.end());
  EXPECT_LT(distinct.size(), path.selection_order.size());
  // Accumulated dense coefficients approximate the target loosely — STAR
  // never re-solves the joint fit, which is exactly its weakness vs OMP.
  const std::vector<Real> dense =
      path.dense_coefficients(path.num_steps() - 1, 3);
  EXPECT_NEAR(dense[0] + dense[1], 1.9, 0.3);  // joint effect captured
  EXPECT_NEAR(dense[0], 1.0, 0.5);
  EXPECT_NEAR(dense[1], 0.9, 0.5);
}

TEST(Star, DenseCoefficientsAccumulateDuplicates) {
  Rng rng(206);
  const Matrix g = monte_carlo_normal(30, 5, rng);
  const std::vector<Real> f = rng.normal_vector(30);
  const SolverPath path = StarSolver().fit_path(MaterializedSource(g), f, 15);
  // Sum of per-step contributions per column == dense vector.
  std::vector<Real> manual(5, 0.0);
  const auto& last = path.coefficients.back();
  for (std::size_t s = 0; s < last.size(); ++s)
    manual[static_cast<std::size_t>(path.selection_order[s])] += last[s];
  const std::vector<Real> dense =
      path.dense_coefficients(path.num_steps() - 1, 5);
  for (int j = 0; j < 5; ++j)
    EXPECT_NEAR(dense[static_cast<std::size_t>(j)],
                manual[static_cast<std::size_t>(j)], 1e-12);
}

}  // namespace
}  // namespace rsm
