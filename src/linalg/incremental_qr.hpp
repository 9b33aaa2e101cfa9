// Incrementally grown thin QR factorization — the OMP hot path.
//
// Algorithm 1 re-solves the least-squares problem (Step 6) every time a new
// basis vector joins the active set. Re-factorizing from scratch costs
// O(K p^2) per step; appending one column to an existing thin QR costs only
// O(K p). Over lambda steps that is the difference between O(K lambda^3) and
// O(K lambda^2) total — material when cross-validation reruns the whole path
// Q times.
//
// Implementation: modified Gram-Schmidt with one reorthogonalization pass
// ("twice is enough", Giraud et al.), storing the thin Q explicitly.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class IncrementalQr {
 public:
  /// Prepares for up to `max_cols` columns of length `rows`.
  IncrementalQr(Index rows, Index max_cols);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index size() const { return num_cols_; }  // columns so far

  /// append_column's default dependence threshold; OMP and SOMP use it.
  static constexpr Real kDependenceTolerance = 1e-10;

  /// Appends a column. Returns false (and leaves the factorization
  /// unchanged) if the column is numerically dependent on the current span,
  /// i.e. its orthogonal remainder has norm <= tol * ||column||.
  [[nodiscard]] bool append_column(
      std::span<const Real> column,
      Real dependence_tol = kDependenceTolerance);

  /// Removes column j (0-based, in append order): deletes R's column and
  /// restores triangularity with Givens rotations, folding them into Q.
  /// O(K * p) — the downdate counterpart of append_column, used by
  /// active-set methods when a variable leaves the support.
  void remove_column(Index j);

  /// Least-squares coefficients for the appended columns against `b`:
  /// solves R x = Q' b by back-substitution. O(K p + p^2).
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> b) const;

  /// Residual b - A x of the current LS fit, computed as b - Q Q' b.
  /// O(K p); avoids reconstructing A x from the original columns.
  [[nodiscard]] std::vector<Real> residual(std::span<const Real> b) const;

  /// Projection coefficients Q' b (length = size()).
  [[nodiscard]] std::vector<Real> project(std::span<const Real> b) const;

  /// Column j of the orthonormal factor.
  [[nodiscard]] std::span<const Real> q_column(Index j) const;

 private:
  Index rows_;
  Index max_cols_;
  Index num_cols_ = 0;
  std::vector<Real> q_;  // column-major rows_ x num_cols_
  Matrix r_;             // max_cols_ x max_cols_, upper triangular in use
};

}  // namespace rsm
