#include "support/lasso_cd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"
#include "support/materialize.hpp"

namespace rsm {
namespace {

Real soft_threshold(Real z, Real gamma) {
  if (z > gamma) return z - gamma;
  if (z < -gamma) return z + gamma;
  return 0;
}

/// Cyclic coordinate descent at one penalty, updating `beta` in place.
/// `residual` is maintained as f - G beta. `col_sq` holds ||G_j||^2 / K.
void descend(const Matrix& g, Real mu, std::span<const Real> col_sq,
             std::vector<Real>& beta, std::vector<Real>& residual,
             Real tolerance, int max_sweeps) {
  const Index k = g.rows();
  const Index m = g.cols();
  const Real inv_k = Real{1} / static_cast<Real>(k);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    Real max_delta = 0, max_beta = 0;
    for (Index j = 0; j < m; ++j) {
      const Real sq = col_sq[static_cast<std::size_t>(j)];
      if (sq <= 0) continue;
      // Partial residual correlation: z = (1/K) G_j'(r + G_j beta_j).
      Real corr = 0;
      for (Index r = 0; r < k; ++r)
        corr += g(r, j) * residual[static_cast<std::size_t>(r)];
      corr *= inv_k;
      const Real old = beta[static_cast<std::size_t>(j)];
      const Real z = corr + sq * old;
      const Real updated = soft_threshold(z, mu) / sq;
      const Real delta = updated - old;
      if (delta != 0) {
        beta[static_cast<std::size_t>(j)] = updated;
        for (Index r = 0; r < k; ++r)
          residual[static_cast<std::size_t>(r)] -= delta * g(r, j);
      }
      max_delta = std::max(max_delta, std::abs(delta));
      max_beta = std::max(max_beta, std::abs(updated));
    }
    if (max_delta <= tolerance * std::max(max_beta, Real{1e-300})) break;
  }
}

}  // namespace

SolverPath LassoCdSolver::fit_path(const ColumnSource& source,
                                   std::span<const Real> f,
                                   Index max_steps) const {
  const Matrix g = materialize(source);
  const Index k = g.rows();
  const Index m = g.cols();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(max_steps > 0);

  std::vector<Real> col_sq(static_cast<std::size_t>(m));
  for (Index j = 0; j < m; ++j) {
    Real s = 0;
    for (Index r = 0; r < k; ++r) s += g(r, j) * g(r, j);
    col_sq[static_cast<std::size_t>(j)] = s / static_cast<Real>(k);
  }

  // mu_max: smallest penalty that zeroes everything = max |G'f| / K.
  std::vector<Real> corr(static_cast<std::size_t>(m));
  gemv_transposed(g, f, corr);
  Real mu_max = 0;
  for (Real c : corr) mu_max = std::max(mu_max, std::abs(c));
  mu_max /= static_cast<Real>(k);

  SolverPath path;
  if (mu_max <= 0) return path;

  std::vector<Real> beta(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> residual(f.begin(), f.end());

  Real mu = mu_max * options_.grid_ratio;
  for (Index t = 0; t < max_steps; ++t) {
    descend(g, mu, col_sq, beta, residual, options_.tolerance,
            options_.max_sweeps_per_mu);

    std::vector<Index> active;
    std::vector<Real> coef;
    for (Index j = 0; j < m; ++j) {
      if (beta[static_cast<std::size_t>(j)] != 0) {
        active.push_back(j);
        coef.push_back(beta[static_cast<std::size_t>(j)]);
      }
    }
    path.active_sets.push_back(active);
    path.coefficients.push_back(std::move(coef));
    path.selection_order.push_back(active.empty() ? -1 : active.back());
    path.residual_norms.push_back(nrm2(residual));
    mu *= options_.grid_ratio;
  }
  return path;
}

std::vector<Real> LassoCdSolver::fit_at(const Matrix& g,
                                        std::span<const Real> f,
                                        Real mu) const {
  const Index k = g.rows();
  const Index m = g.cols();
  RSM_CHECK(static_cast<Index>(f.size()) == k);
  RSM_CHECK(mu >= 0);
  std::vector<Real> col_sq(static_cast<std::size_t>(m));
  for (Index j = 0; j < m; ++j) {
    Real s = 0;
    for (Index r = 0; r < k; ++r) s += g(r, j) * g(r, j);
    col_sq[static_cast<std::size_t>(j)] = s / static_cast<Real>(k);
  }
  std::vector<Real> beta(static_cast<std::size_t>(m), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  descend(g, mu, col_sq, beta, residual, options_.tolerance,
          options_.max_sweeps_per_mu);
  return beta;
}

}  // namespace rsm
