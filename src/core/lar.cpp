#include "core/lar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"

namespace rsm {
namespace {

/// Incrementally grown Cholesky of the Gram matrix of a set of unit-norm
/// columns. Supports append (O(p^2)) and remove (rebuild, O(p^3), rare —
/// only on LASSO drops).
class ActiveGramCholesky {
 public:
  explicit ActiveGramCholesky(Index max_size) : l_(max_size, max_size) {}

  [[nodiscard]] Index size() const { return p_; }

  /// Appends a column with the given cross products g = X_A' x_new and
  /// squared norm. Returns false if the new column is numerically in the
  /// span of the active set.
  [[nodiscard]] bool append(std::span<const Real> cross, Real squared_norm) {
    RSM_CHECK(static_cast<Index>(cross.size()) == p_);
    // Solve L l12 = cross.
    std::vector<Real> l12(static_cast<std::size_t>(p_));
    for (Index i = 0; i < p_; ++i) {
      Real s = cross[static_cast<std::size_t>(i)];
      for (Index k = 0; k < i; ++k) s -= l_(i, k) * l12[static_cast<std::size_t>(k)];
      l12[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    Real d = squared_norm;
    for (Real v : l12) d -= v * v;
    if (d <= Real{1e-12} * squared_norm) return false;
    for (Index i = 0; i < p_; ++i) l_(p_, i) = l12[static_cast<std::size_t>(i)];
    l_(p_, p_) = std::sqrt(d);
    ++p_;
    return true;
  }

  /// Empties the factor; a LASSO drop re-appends the remaining columns.
  void clear() { p_ = 0; }

  /// Solves (X_A' X_A) v = rhs.
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> rhs) const {
    RSM_CHECK(static_cast<Index>(rhs.size()) == p_);
    std::vector<Real> v(rhs.begin(), rhs.end());
    for (Index i = 0; i < p_; ++i) {
      Real s = v[static_cast<std::size_t>(i)];
      for (Index k = 0; k < i; ++k) s -= l_(i, k) * v[static_cast<std::size_t>(k)];
      v[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    for (Index i = p_ - 1; i >= 0; --i) {
      Real s = v[static_cast<std::size_t>(i)];
      for (Index k = i + 1; k < p_; ++k)
        s -= l_(k, i) * v[static_cast<std::size_t>(k)];
      v[static_cast<std::size_t>(i)] = s / l_(i, i);
    }
    return v;
  }

 private:
  Index p_ = 0;
  Matrix l_;
};

}  // namespace

SolverPath LarSolver::fit_path(const ColumnSource& source,
                               std::span<const Real> f,
                               Index max_steps) const {
  RSM_TRACE_SPAN("lar.fit");
  const Index num_samples = source.rows();
  const Index num_columns = source.num_columns();
  RSM_CHECK(static_cast<Index>(f.size()) == num_samples);
  RSM_CHECK(max_steps > 0);
  max_steps = std::min(max_steps, std::min(num_samples - 1, num_columns));

  // LAR runs on X = G diag(1 / ||G_j||), unit-norm columns, without forming
  // X: one pass over G's columns takes the scales, X'x is G'x scaled per
  // column, and only the active columns of X are materialized. Zero columns
  // are excluded outright.
  const auto k = static_cast<std::size_t>(num_samples);
  std::vector<Real> inv_scale(static_cast<std::size_t>(num_columns), Real{0});
  std::vector<bool> usable(static_cast<std::size_t>(num_columns), false);
  std::vector<Real> column(k);
  for (Index j = 0; j < num_columns; ++j) {
    source.column(j, column);
    const Real norm = nrm2(column);
    if (norm <= Real{1e-300}) continue;
    inv_scale[static_cast<std::size_t>(j)] = Real{1} / norm;
    usable[static_cast<std::size_t>(j)] = true;
  }
  const auto correlate = [&](std::span<const Real> x, std::span<Real> out) {
    source.correlate(x, out);
    for (std::size_t j = 0; j < out.size(); ++j) out[j] *= inv_scale[j];
  };

  // Normalized active columns, in active order: column i of the K x |A|
  // block occupies [i * K, (i + 1) * K).
  std::vector<Real> active_block;
  const auto active_column = [&](std::size_t i) {
    return std::span<const Real>(active_block).subspan(i * k, k);
  };
  // Dot products of `col` with the first `count` active columns.
  const auto cross_products = [&](std::span<const Real> col,
                                  std::size_t count) {
    std::vector<Real> cross(count);
    for (std::size_t i = 0; i < count; ++i)
      cross[i] = dot(active_column(i), col);
    return cross;
  };

  SolverPath path;
  path.active_sets = {};  // filled per step (drops break prefix structure)

  std::vector<Real> mu(static_cast<std::size_t>(num_samples), Real{0});
  std::vector<Real> residual(f.begin(), f.end());
  std::vector<Real> c(static_cast<std::size_t>(num_columns));
  std::vector<Real> a(static_cast<std::size_t>(num_columns));
  std::vector<Real> u(static_cast<std::size_t>(num_samples));

  std::vector<Index> active;
  std::vector<Real> signs;
  std::vector<Real> beta;  // coefficients in normalized space, active order
  std::vector<bool> in_active(static_cast<std::size_t>(num_columns), false);
  ActiveGramCholesky chol(std::min(num_samples, max_steps + 1));

  correlate(residual, c);
  const Real c0 = max_abs(c);
  if (c0 <= Real{0}) return path;

  bool just_dropped = false;
  // Each loop iteration performs one LAR event (add or drop) plus a move.
  for (Index event = 0; event < 4 * max_steps + 8; ++event) {
    RSM_TRACE_SPAN("lar.step");
    check_cooperative_stop("lar.step");
    if (static_cast<Index>(active.size()) >= max_steps && !just_dropped) break;

    correlate(residual, c);

    if (!just_dropped) {
      // Admit the most correlated inactive column.
      Index best = -1;
      Real best_val = options_.correlation_tolerance * c0;
      for (Index j = 0; j < num_columns; ++j) {
        if (in_active[static_cast<std::size_t>(j)] ||
            !usable[static_cast<std::size_t>(j)])
          continue;
        const Real v = std::abs(c[static_cast<std::size_t>(j)]);
        if (v > best_val) {
          best_val = v;
          best = j;
        }
      }
      if (best < 0) break;  // correlations exhausted

      // Cross products of the normalized candidate with the active columns.
      source.column(best, column);
      scale(inv_scale[static_cast<std::size_t>(best)], column);
      if (!chol.append(cross_products(column, active.size()), Real{1})) {
        usable[static_cast<std::size_t>(best)] = false;  // collinear; skip
        continue;
      }
      active_block.insert(active_block.end(), column.begin(), column.end());
      active.push_back(best);
      in_active[static_cast<std::size_t>(best)] = true;
      signs.push_back(c[static_cast<std::size_t>(best)] >= 0 ? Real{1}
                                                             : Real{-1});
      beta.push_back(0);
    }
    just_dropped = false;

    // Equiangular direction: v = Gram^{-1} s;  A = 1/sqrt(s'v);  the move in
    // coefficient space is d = A v, in sample space u = X_A d.
    const std::vector<Real> v = chol.solve(signs);
    Real s_dot_v = 0;
    for (std::size_t i = 0; i < signs.size(); ++i) s_dot_v += signs[i] * v[i];
    RSM_CHECK_MSG(s_dot_v > 0, "LAR: non-positive equiangular normalization");
    const Real a_norm = Real{1} / std::sqrt(s_dot_v);
    std::vector<Real> d(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) d[i] = a_norm * v[i];

    std::fill(u.begin(), u.end(), Real{0});
    for (std::size_t i = 0; i < active.size(); ++i)
      axpy(d[i], active_column(i), u);
    correlate(u, a);

    // Current common correlation magnitude of the active set.
    Real cmax = 0;
    for (Index j : active)
      cmax = std::max(cmax, std::abs(c[static_cast<std::size_t>(j)]));
    if (cmax <= options_.correlation_tolerance * c0) break;

    // Step length to the next tie (Efron et al., eq. 2.13).
    Real gamma = cmax / a_norm;  // full LS step if nothing ties
    for (Index j = 0; j < num_columns; ++j) {
      if (in_active[static_cast<std::size_t>(j)] ||
          !usable[static_cast<std::size_t>(j)])
        continue;
      const Real cj = c[static_cast<std::size_t>(j)];
      const Real aj = a[static_cast<std::size_t>(j)];
      const Real d1 = a_norm - aj;
      const Real d2 = a_norm + aj;
      if (d1 > Real{1e-14}) {
        const Real t = (cmax - cj) / d1;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
      if (d2 > Real{1e-14}) {
        const Real t = (cmax + cj) / d2;
        if (t > Real{1e-14} && t < gamma) gamma = t;
      }
    }

    // LASSO modification: clip at the first zero crossing of an active
    // coefficient and drop that variable.
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

    if (drop >= 0) {
      const Index col = active[static_cast<std::size_t>(drop)];
      in_active[static_cast<std::size_t>(col)] = false;
      active.erase(active.begin() + drop);
      signs.erase(signs.begin() + drop);
      beta.erase(beta.begin() + drop);
      const auto first = active_block.begin() + drop * num_samples;
      active_block.erase(first, first + num_samples);
      // Rebuild the active Cholesky from the remaining columns.
      chol.clear();
      for (std::size_t i = 0; i < active.size(); ++i) {
        const std::span<const Real> x_i = active_column(i);
        RSM_CHECK_MSG(chol.append(cross_products(x_i, i), dot(x_i, x_i)),
                      "active set became singular after LASSO drop");
      }
      just_dropped = true;
    }

    // Record the step: active set + de-normalized coefficients.
    path.active_sets.push_back(active);
    std::vector<Real> denorm(active.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      denorm[i] = beta[i] * inv_scale[static_cast<std::size_t>(active[i])];
    path.coefficients.push_back(std::move(denorm));
    path.selection_order.push_back(active.empty() ? -1 : active.back());
    path.residual_norms.push_back(nrm2(residual));

    if (obs::telemetry_enabled()) {
      obs::emit(obs::SolverIterationEvent{
          .solver = "LAR",
          .step = static_cast<Index>(path.coefficients.size()) - 1,
          .selected = path.selection_order.back(),
          .max_correlation = cmax,
          .residual_norm = path.residual_norms.back(),
          .active_count = static_cast<Index>(active.size())});
    }

    if (gamma >= cmax / a_norm - Real{1e-14} && drop < 0) {
      // Took the full least-squares step: correlations are (numerically)
      // zero, the path is complete.
      break;
    }
  }
  return path;
}

}  // namespace rsm
