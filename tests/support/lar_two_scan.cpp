#include "support/lar_two_scan.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/vector_ops.hpp"

namespace rsm {

SolverPath TwoScanLarSolver::fit_path(const ColumnSource& source,
                                      std::span<const Real> f,
                                      Index max_steps) const {
  const Index num_samples = source.rows();
  const Index num_columns = source.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK(max_steps > 0);
  max_steps = std::min(max_steps, std::min(num_samples - 1, num_columns));
  const auto k = static_cast<std::size_t>(num_samples);
  const auto m = static_cast<std::size_t>(num_columns);

  // Unit-norm columns X = G diag(1 / ||G_j||); zero columns are never used.
  std::vector<Real> inv_scale(m, Real{0});
  std::vector<bool> usable(m, false);
  std::vector<Real> column(k);
  for (std::size_t j = 0; j < m; ++j) {
    source.column(static_cast<Index>(j), column);
    const Real norm = nrm2(column);
    if (norm <= Real{1e-300}) continue;
    inv_scale[j] = Real{1} / norm;
    usable[j] = true;
  }
  const auto correlate = [&](std::span<const Real> x, std::span<Real> out) {
    source.correlate(x, out);
    for (std::size_t j = 0; j < m; ++j) out[j] *= inv_scale[j];
  };
  std::vector<std::vector<Real>> active_columns;
  const auto cross_products = [&](std::span<const Real> col,
                                  std::size_t count) {
    std::vector<Real> cross(count);
    for (std::size_t i = 0; i < count; ++i)
      cross[i] = dot(active_columns[i], col);
    return cross;
  };

  SolverPath path;
  std::vector<Real> mu(k, Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> c(m);
  std::vector<Real> a(m);
  std::vector<Real> u(k);
  std::vector<Index> active;
  std::vector<Real> signs;
  std::vector<Real> beta;
  std::vector<bool> in_active(m, false);
  CholeskyFactorization chol(std::min(num_samples, max_steps + 1));

  correlate(residual, c);
  const Real c0 = max_abs(c);
  if (c0 <= Real{0}) return path;

  bool just_dropped = false;
  bool moved = false;
  for (Index event = 0; event < 4 * max_steps + 8; ++event) {
    if (static_cast<Index>(active.size()) >= max_steps && !just_dropped) break;
    // The first scan of the step: the correlations of the current residual.
    if (moved) correlate(residual, c);
    moved = false;

    if (!just_dropped) {
      Index best = -1;
      Real best_val = Real{1e-12} * c0;
      for (std::size_t j = 0; j < m; ++j) {
        if (in_active[j] || !usable[j]) continue;
        if (std::abs(c[j]) > best_val) {
          best_val = std::abs(c[j]);
          best = static_cast<Index>(j);
        }
      }
      if (best < 0) break;
      const auto b = static_cast<std::size_t>(best);
      source.column(best, column);
      scale(inv_scale[b], column);
      if (!chol.append(cross_products(column, active.size()), Real{1},
                       Real{1e-12})) {
        usable[b] = false;  // collinear with the active set
        continue;
      }
      active_columns.push_back(column);
      active.push_back(best);
      in_active[b] = true;
      signs.push_back(c[b] >= 0 ? Real{1} : Real{-1});
      beta.push_back(0);
    }
    just_dropped = false;

    // Equiangular direction and the second scan, a = X'u.
    const std::vector<Real> v = chol.solve(signs);
    Real s_dot_v = 0;
    for (std::size_t i = 0; i < signs.size(); ++i) s_dot_v += signs[i] * v[i];
    RSM_CHECK(s_dot_v > 0);
    const Real a_norm = Real{1} / std::sqrt(s_dot_v);
    std::vector<Real> d(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) d[i] = a_norm * v[i];
    std::fill(u.begin(), u.end(), Real{0});
    for (std::size_t i = 0; i < active.size(); ++i)
      axpy(d[i], active_columns[i], u);
    correlate(u, a);

    Real cmax = 0;
    for (Index j : active)
      cmax = std::max(cmax, std::abs(c[static_cast<std::size_t>(j)]));
    if (cmax <= Real{1e-12} * c0) break;

    // Step to the next tie (Efron et al., eq. 2.13) or, for LASSO, to the
    // first zero crossing of an active coefficient.
    Real gamma = cmax / a_norm;
    for (std::size_t j = 0; j < m; ++j) {
      if (in_active[j] || !usable[j]) continue;
      const Real d1 = a_norm - a[j];
      const Real d2 = a_norm + a[j];
      if (d1 > Real{1e-14}) {
        const Real t = (cmax - c[j]) / d1;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
      if (d2 > Real{1e-14}) {
        const Real t = (cmax + c[j]) / d2;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
    }
    Index drop = -1;
    if (options_.lasso) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (d[i] == Real{0}) continue;
        const Real t = -beta[i] / d[i];
        if (t > Real{1e-14} && t < gamma) {
          gamma = t;
          drop = static_cast<Index>(i);
        }
      }
    }

    for (std::size_t i = 0; i < active.size(); ++i) beta[i] += gamma * d[i];
    axpy(gamma, u, mu);
    residual = vsub(f, mu);
    moved = true;

    if (drop >= 0) {
      const auto i_drop = static_cast<std::size_t>(drop);
      in_active[static_cast<std::size_t>(active[i_drop])] = false;
      active.erase(active.begin() + drop);
      signs.erase(signs.begin() + drop);
      beta.erase(beta.begin() + drop);
      active_columns.erase(active_columns.begin() + drop);
      chol.clear();
      for (std::size_t i = 0; i < active.size(); ++i) {
        const std::vector<Real>& x_i = active_columns[i];
        RSM_CHECK(chol.append(cross_products(x_i, i), dot(x_i, x_i),
                              Real{1e-12}));
      }
      just_dropped = true;
    }

    path.active_sets.push_back(active);
    std::vector<Real> denorm(active.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      denorm[i] = beta[i] * inv_scale[static_cast<std::size_t>(active[i])];
    path.coefficients.push_back(std::move(denorm));
    path.selection_order.push_back(active.empty() ? -1 : active.back());
    path.residual_norms.push_back(nrm2(residual));

    if (gamma >= cmax / a_norm - Real{1e-14} && drop < 0) break;
  }
  return path;
}

}  // namespace rsm
