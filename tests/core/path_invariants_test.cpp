// Whole-path invariants of LAR (Efron et al. 2004) and OMP on
// underdetermined designs (K < M), uncorrelated and with the ablation's
// column correlation of 0.8. Each step's residual and correlations are
// recomputed here from the step's coefficients alone, so the checks hold the
// solvers to the mathematics, not to their own bookkeeping:
//   * LAR, pure and LASSO: the active columns' |correlation| stay equal, the
//     common value never increases, no inactive column exceeds it, and with
//     the LASSO modification every coefficient has its correlation's sign;
//   * OMP: the residual is orthogonal to every active column.
#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/column_source.hpp"
#include "core/lar.hpp"
#include "core/omp.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "support/designs.hpp"

namespace rsm {
namespace {

constexpr Index kRows = 60;
constexpr Index kColumns = 200;

/// f - G a for the coefficients of step t.
std::vector<Real> step_residual(const Matrix& g, const std::vector<Real>& f,
                                const SolverPath& path, Index t) {
  const std::vector<Index> support = path.support(t);
  const std::vector<Real>& coef =
      path.coefficients[static_cast<std::size_t>(t)];
  std::vector<Real> r = f;
  for (std::size_t s = 0; s < support.size(); ++s)
    axpy(-coef[s], g.col(support[s]), r);
  return r;
}

/// G_j' r / ||G_j|| for every column j.
std::vector<Real> unit_correlations(const Matrix& g,
                                    const std::vector<Real>& r) {
  std::vector<Real> c(static_cast<std::size_t>(g.cols()));
  for (Index j = 0; j < g.cols(); ++j) {
    const std::vector<Real> column = g.col(j);
    c[static_cast<std::size_t>(j)] = dot(column, r) / nrm2(column);
  }
  return c;
}

class LarPathInvariants
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(LarPathInvariants, EquiangularOverTheWholePath) {
  const auto [rho, lasso] = GetParam();
  Rng rng(2101);
  const Matrix g = normal_correlated_design(kRows, kColumns, rho, rng);
  const std::vector<Real> f = normal_sparse_response(g, rng);
  LarSolver::Options options;
  options.lasso = lasso;
  const SolverPath path =
      LarSolver(options).fit_path(MaterializedSource(g), f, kRows);
  ASSERT_GE(path.num_steps(), kRows / 2);

  Real previous = 0;  // the common |correlation| of the step before
  for (Real c : unit_correlations(g, f))
    previous = std::max(previous, std::abs(c));
  constexpr Real kTolerance = 1e-8;
  int drops = 0;
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Real> c =
        unit_correlations(g, step_residual(g, f, path, t));
    const std::vector<Index> support = path.support(t);
    if (t > 0 && support.size() < path.support(t - 1).size()) ++drops;
    std::vector<bool> active(static_cast<std::size_t>(g.cols()), false);
    Real cmax = 0;
    Real cmin = std::numeric_limits<Real>::infinity();
    for (Index j : support) {
      active[static_cast<std::size_t>(j)] = true;
      cmax = std::max(cmax, std::abs(c[static_cast<std::size_t>(j)]));
      cmin = std::min(cmin, std::abs(c[static_cast<std::size_t>(j)]));
    }
    // Only the final full least-squares step leaves no correlation at all.
    if (cmax <= 1e-9 * previous) {
      EXPECT_EQ(t, path.num_steps() - 1) << "correlations vanished early";
      break;
    }
    EXPECT_LE(cmax - cmin, kTolerance * cmax) << "step " << t;
    EXPECT_LE(cmax, previous * (1 + kTolerance)) << "step " << t;
    for (Index j = 0; j < g.cols(); ++j) {
      if (active[static_cast<std::size_t>(j)]) continue;
      EXPECT_LE(std::abs(c[static_cast<std::size_t>(j)]),
                cmax * (1 + kTolerance))
          << "inactive column " << j << " at step " << t;
    }
    if (lasso) {
      const std::vector<Real>& coef =
          path.coefficients[static_cast<std::size_t>(t)];
      for (std::size_t s = 0; s < support.size(); ++s) {
        if (coef[s] == 0) continue;
        EXPECT_EQ(coef[s] > 0,
                  c[static_cast<std::size_t>(support[s])] > 0)
            << "column " << support[s] << " at step " << t;
      }
    }
    previous = cmax;
  }
  if (lasso) {
    EXPECT_GE(drops, 1) << "no LASSO drop on this path";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CorrelationAndMode, LarPathInvariants,
    ::testing::Combine(::testing::Values(0.0, 0.8), ::testing::Bool()));

class OmpPathInvariants : public ::testing::TestWithParam<double> {};

TEST_P(OmpPathInvariants, ResidualOrthogonalToEveryActiveColumn) {
  Rng rng(2102);
  const Matrix g = normal_correlated_design(kRows, kColumns, GetParam(), rng);
  const std::vector<Real> f = normal_sparse_response(g, rng);
  const SolverPath path =
      OmpSolver().fit_path(MaterializedSource(g), f, kRows);
  ASSERT_GE(path.num_steps(), kRows / 2);
  const Real f_norm = nrm2(f);
  for (Index t = 0; t < path.num_steps(); ++t) {
    const std::vector<Real> r = step_residual(g, f, path, t);
    for (Index j : path.support(t)) {
      const std::vector<Real> column = g.col(j);
      EXPECT_LE(std::abs(dot(column, r)) / (nrm2(column) * f_norm), 1e-10)
          << "column " << j << " at step " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Correlation, OmpPathInvariants,
                         ::testing::Values(0.0, 0.8));

}  // namespace
}  // namespace rsm
