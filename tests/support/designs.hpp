// Random designs and sparse responses the solver tests share, drawn from a
// seeded Rng: the uniform family the pinned-bits hashes were printed for,
// and the standard-normal family of the whole-path invariants.
#pragma once

#include <cmath>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"

namespace rsm {

/// rows x cols entries drawn from Rng::uniform(-1, 1). Only uniform draws
/// and IEEE-exact arithmetic feed these inputs, so no libm version can move
/// their bits.
inline Matrix uniform_matrix(Index rows, Index cols, Rng& rng) {
  Matrix a(rows, cols);
  for (Index i = 0; i < rows; ++i)
    for (Index j = 0; j < cols; ++j) a(i, j) = rng.uniform(-1, 1);
  return a;
}

inline std::vector<Real> uniform_vector(Index n, Rng& rng) {
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (Real& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// K x M design whose columns share a row component, G(i, j) = u_ij +
/// 0.8 z_i, so they are correlated and LASSO drops variables along the path.
inline Matrix uniform_correlated_design(Index k, Index m, Rng& rng) {
  Matrix g = uniform_matrix(k, m, rng);
  for (Index i = 0; i < k; ++i) {
    const Real z = 0.8 * rng.uniform(-1, 1);
    for (Index j = 0; j < m; ++j) g(i, j) += z;
  }
  return g;
}

/// A sparse response: `terms` columns of g with mixed-sign weights, plus
/// uniform noise.
inline std::vector<Real> uniform_sparse_response(const Matrix& g, Index terms,
                                                 Rng& rng) {
  std::vector<Real> f = uniform_vector(g.rows(), rng);
  for (Real& v : f) v *= 0.05;
  for (Index t = 0; t < terms; ++t) {
    const Index j = rng.uniform_index(g.cols());
    const Real weight = (t % 2 == 0 ? 1 : -1) * (1 + rng.uniform());
    for (Index i = 0; i < g.rows(); ++i)
      f[static_cast<std::size_t>(i)] += weight * g(i, j);
  }
  return f;
}

/// K x M standard-normal design whose columns have pairwise correlation
/// rho: G(i, j) = sqrt(1 - rho) u_ij + sqrt(rho) z_i.
inline Matrix normal_correlated_design(Index k, Index m, Real rho, Rng& rng) {
  Matrix g(k, m);
  for (Index i = 0; i < k; ++i) {
    const Real z = std::sqrt(rho) * rng.normal();
    for (Index j = 0; j < m; ++j)
      g(i, j) = std::sqrt(1 - rho) * rng.normal() + z;
  }
  return g;
}

/// Eight columns of g with mixed-sign weights, plus normal noise.
inline std::vector<Real> normal_sparse_response(const Matrix& g, Rng& rng) {
  std::vector<Real> f(static_cast<std::size_t>(g.rows()));
  for (Real& v : f) v = 0.1 * rng.normal();
  for (int t = 0; t < 8; ++t) {
    const Real weight = (t % 2 == 0 ? 1 : -1) * (1 + rng.uniform());
    axpy(weight, g.col(rng.uniform_index(g.cols())), f);
  }
  return f;
}

}  // namespace rsm
