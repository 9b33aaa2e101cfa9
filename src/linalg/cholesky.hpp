// Cholesky factorization of symmetric positive-definite matrices.
//
// Used by the LAR solver, which grows one factor of its active columns'
// Gram matrix a row at a time as variables enter (and re-grows it after a
// LASSO drop), by the normal-equation fast path of the LS baseline, and by
// the covariance-model sampler in src/stats.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// Lower-triangular Cholesky factor L with A = L L'.
class CholeskyFactorization {
 public:
  /// Factorizes symmetric positive-definite `a` (only the lower triangle is
  /// read) by appending its rows in order with tolerance 0. Throws
  /// SingularMatrixError at the first pivot that is not positive.
  explicit CholeskyFactorization(const Matrix& a);

  /// An empty factor (size() == 0) with room for `capacity` rows.
  explicit CholeskyFactorization(Index capacity);

  [[nodiscard]] Index size() const { return size_; }

  /// Grows L by one row for a new last row of A: `cross` against the
  /// size() current rows, then `diagonal`. O(size()^2). Returns false,
  /// leaving the factor unchanged, when the new pivot is not above
  /// `tolerance * diagonal` (a column in the span of the others).
  [[nodiscard]] bool append(std::span<const Real> cross, Real diagonal,
                            Real tolerance);

  /// Empties the factor, keeping its capacity.
  void clear() { size_ = 0; }

  /// Solves A x = b via forward + backward substitution.
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> b) const;

  /// Solves L y = b (forward substitution).
  [[nodiscard]] std::vector<Real> solve_lower(std::span<const Real> b) const;

  /// Solves L' x = y (backward substitution).
  [[nodiscard]] std::vector<Real> solve_upper(std::span<const Real> y) const;

  /// The factor L (size() x size(), lower triangular).
  [[nodiscard]] Matrix l() const;

  /// log(det A) = 2 * sum(log L(i,i)); used by statistical diagnostics.
  [[nodiscard]] Real log_determinant() const;

 private:
  Matrix l_;  // capacity x capacity; L is its leading size_ x size_ block
  Index size_ = 0;
};

/// Convenience: solve the SPD system A x = b in one call.
[[nodiscard]] std::vector<Real> cholesky_solve(const Matrix& a,
                                               std::span<const Real> b);

}  // namespace rsm
