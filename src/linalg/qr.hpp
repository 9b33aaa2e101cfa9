// Householder QR factorization and least-squares solves.
//
// This is the workhorse behind the LS-fitting baseline [21] and the final
// coefficient solve of every sparse method: given K samples and a selected
// support of p columns, coefficients are argmin ||G_sel * a - F||_2.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// Householder QR of an m x n matrix with m >= n.
///
/// Storage follows LAPACK convention: the upper triangle of `qr_` holds R;
/// the essential parts of the Householder vectors live below the diagonal
/// with the scalar factors in `tau_`.
class QrFactorization {
 public:
  /// Factorizes `a` (copied). Requires a.rows() >= a.cols().
  explicit QrFactorization(const Matrix& a);

  [[nodiscard]] Index rows() const { return qr_.rows(); }
  [[nodiscard]] Index cols() const { return qr_.cols(); }

  /// Minimum-residual solution of A x = b. b.size() == rows().
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> b) const;

  /// Applies Q' to b in place (b.size() == rows()).
  void apply_qt(std::span<Real> b) const;

  /// Applies Q to b in place (b.size() == rows()).
  void apply_q(std::span<Real> b) const;

  /// Back-substitution with the R factor: solves R x = y[0..cols).
  [[nodiscard]] std::vector<Real> solve_r(std::span<const Real> y) const;

  /// The thin orthogonal factor Q1 (rows x cols), QtQ = I.
  [[nodiscard]] Matrix thin_q() const;

  /// The square upper-triangular factor R (cols x cols).
  [[nodiscard]] Matrix r() const;

  /// |R(i,i)| ratio max/min — a cheap lower bound on the 2-norm condition
  /// number; used to flag near-rank-deficient supports.
  [[nodiscard]] Real condition_estimate() const;

  /// True if some |R(i,i)| is ~zero relative to the largest (rank-deficient).
  [[nodiscard]] bool rank_deficient(Real relative_tolerance = 1e-12) const;

 private:
  Matrix qr_;
  std::vector<Real> tau_;
};

/// One-shot least squares: argmin_x ||A x - b||_2 with A.rows() >= A.cols().
[[nodiscard]] std::vector<Real> least_squares_solve(const Matrix& a,
                                                    std::span<const Real> b);

/// Rank-revealing Householder QR with column pivoting: A P = Q R.
///
/// The robust fallback for least-squares systems the plain factorizations
/// reject — a rank-deficient design matrix (duplicate dictionary columns, a
/// degenerate CV fold) gets a well-defined *basic* solution: coefficients
/// for the `rank()` pivoted columns, exact zeros for the dependent rest,
/// instead of a SingularMatrixError.
class PivotedQr {
 public:
  /// Columns whose trailing norm falls below kRankTolerance times the
  /// largest initial column norm are dependent: never pivoted into the basis.
  static constexpr Real kRankTolerance = 1e-12;

  /// Factorizes `a` (any shape).
  explicit PivotedQr(const Matrix& a);

  [[nodiscard]] Index rows() const { return qr_.rows(); }
  [[nodiscard]] Index cols() const { return qr_.cols(); }

  /// Numerical rank detected during factorization.
  [[nodiscard]] Index rank() const { return rank_; }

  /// Column permutation: factorization column k holds original column
  /// `permutation()[k]`.
  [[nodiscard]] const std::vector<Index>& permutation() const { return perm_; }

  /// Basic least-squares solution of A x ~= b (length cols(), zeros on the
  /// non-pivot columns). b.size() == rows().
  [[nodiscard]] std::vector<Real> solve(std::span<const Real> b) const;

 private:
  Matrix qr_;
  std::vector<Real> tau_;
  std::vector<Index> perm_;
  Index rank_ = 0;
};

/// One-shot rank-tolerant least squares via PivotedQr; works at any rank.
[[nodiscard]] std::vector<Real> least_squares_solve_pivoted(
    const Matrix& a, std::span<const Real> b);

}  // namespace rsm
