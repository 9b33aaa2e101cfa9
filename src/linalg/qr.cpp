#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "util/errors.hpp"

namespace rsm {
namespace {

/// 2-norm of rows k.. of column j.
Real trailing_norm(const Matrix& a, Index k, Index j) {
  Real s = 0;
  for (Index i = k; i < a.rows(); ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

/// Householder step k of both factorizations: reflects rows k.. of column
/// k, whose 2-norm `norm` is not zero, onto alpha e_k; stores the
/// reflector's vector v below the diagonal, normalized so v[0] = 1 (kept
/// implicit); applies I - tau v v' to the trailing columns; returns tau.
Real householder_step(Matrix& qr, Index k, Real norm) {
  const Index m = qr.rows(), n = qr.cols();
  const Real alpha = qr(k, k) >= 0 ? -norm : norm;
  const Real v0 = qr(k, k) - alpha;
  for (Index i = k + 1; i < m; ++i) qr(i, k) /= v0;
  const Real tau = -v0 / alpha;
  qr(k, k) = alpha;
  for (Index j = k + 1; j < n; ++j) {
    Real s = qr(k, j);
    for (Index i = k + 1; i < m; ++i) s += qr(i, k) * qr(i, j);
    s *= tau;
    qr(k, j) -= s;
    for (Index i = k + 1; i < m; ++i) qr(i, j) -= s * qr(i, k);
  }
  return tau;
}

/// b = (I - tau v v') b for the reflector stored in column k of `qr`.
void apply_reflector(const Matrix& qr, Index k, Real tau, std::span<Real> b) {
  if (tau == Real{0}) return;
  Real* v = b.data();
  Real s = v[k];
  for (Index i = k + 1; i < qr.rows(); ++i) s += qr(i, k) * v[i];
  s *= tau;
  v[k] -= s;
  for (Index i = k + 1; i < qr.rows(); ++i) v[i] -= s * qr(i, k);
}

/// b = Q' b, Q the product of the reflectors with factors `tau`.
void reflect_qt(const Matrix& qr, std::span<const Real> tau,
                std::span<Real> b) {
  for (std::size_t k = 0; k < tau.size(); ++k)
    apply_reflector(qr, static_cast<Index>(k), tau[k], b);
}

}  // namespace

QrFactorization::QrFactorization(const Matrix& a) : qr_(a) {
  const Index m = qr_.rows(), n = qr_.cols();
  RSM_CHECK_MSG(m >= n, "QR requires rows >= cols, got " << m << "x" << n);
  tau_.assign(static_cast<std::size_t>(n), Real{0});
  for (Index k = 0; k < n; ++k) {
    const Real norm = trailing_norm(qr_, k, k);
    if (norm == Real{0}) continue;  // zero column: tau = 0, R(k,k) = 0
    tau_[static_cast<std::size_t>(k)] = householder_step(qr_, k, norm);
  }
}

void QrFactorization::apply_qt(std::span<Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == qr_.rows());
  reflect_qt(qr_, tau_, b);
}

void QrFactorization::apply_q(std::span<Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == qr_.rows());
  for (Index k = qr_.cols() - 1; k >= 0; --k)
    apply_reflector(qr_, k, tau_[static_cast<std::size_t>(k)], b);
}

std::vector<Real> QrFactorization::solve_r(std::span<const Real> y) const {
  const Index n = qr_.cols();
  RSM_CHECK(static_cast<Index>(y.size()) >= n);
  for (Index i = n - 1; i >= 0; --i) {
    if (qr_(i, i) == Real{0}) {
      throw SingularMatrixError("singular R in QR solve at diagonal " +
                                std::to_string(i));
    }
  }
  std::vector<Real> x(y.begin(), y.begin() + n);
  solve_upper_triangular(qr_, x);
  return x;
}

std::vector<Real> QrFactorization::solve(std::span<const Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == qr_.rows());
  std::vector<Real> work(b.begin(), b.end());
  apply_qt(work);
  return solve_r(work);
}

Matrix QrFactorization::thin_q() const {
  const Index m = qr_.rows(), n = qr_.cols();
  Matrix q(m, n);
  std::vector<Real> e(static_cast<std::size_t>(m));
  for (Index j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), Real{0});
    e[static_cast<std::size_t>(j)] = 1;
    apply_q(e);
    q.set_col(j, e);
  }
  return q;
}

Matrix QrFactorization::r() const {
  const Index n = qr_.cols();
  Matrix r(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = i; j < n; ++j) r(i, j) = qr_(i, j);
  return r;
}

Real QrFactorization::condition_estimate() const {
  Real dmax = 0, dmin = std::numeric_limits<Real>::infinity();
  for (Index i = 0; i < qr_.cols(); ++i) {
    const Real d = std::abs(qr_(i, i));
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  if (dmin == Real{0}) return std::numeric_limits<Real>::infinity();
  return dmax / dmin;
}

bool QrFactorization::rank_deficient(Real relative_tolerance) const {
  Real dmax = 0;
  for (Index i = 0; i < qr_.cols(); ++i)
    dmax = std::max(dmax, std::abs(qr_(i, i)));
  for (Index i = 0; i < qr_.cols(); ++i)
    if (std::abs(qr_(i, i)) <= relative_tolerance * dmax) return true;
  return false;
}

std::vector<Real> least_squares_solve(const Matrix& a,
                                      std::span<const Real> b) {
  return QrFactorization(a).solve(b);
}

PivotedQr::PivotedQr(const Matrix& a) : qr_(a) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax = std::min(m, n);
  tau_.assign(static_cast<std::size_t>(kmax), Real{0});
  perm_.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) perm_[static_cast<std::size_t>(j)] = j;

  // Largest initial column norm anchors the absolute rank cutoff.
  Real norm_max = 0;
  for (Index j = 0; j < n; ++j)
    norm_max = std::max(norm_max, trailing_norm(qr_, 0, j));
  const Real cutoff = kRankTolerance * norm_max;

  for (Index k = 0; k < kmax; ++k) {
    // Pivot: bring the trailing column with the largest remaining norm to
    // position k (norms recomputed exactly — O(mn) per step is irrelevant
    // next to the factorization itself and immune to downdate cancellation).
    Index pivot = k;
    Real pivot_norm = 0;
    for (Index j = k; j < n; ++j) {
      const Real s = trailing_norm(qr_, k, j);
      if (s > pivot_norm) {
        pivot_norm = s;
        pivot = j;
      }
    }
    if (pivot_norm <= cutoff) break;  // remaining columns are dependent
    if (pivot != k) {
      for (Index i = 0; i < m; ++i) std::swap(qr_(i, k), qr_(i, pivot));
      std::swap(perm_[static_cast<std::size_t>(k)],
                perm_[static_cast<std::size_t>(pivot)]);
    }
    tau_[static_cast<std::size_t>(k)] = householder_step(qr_, k, pivot_norm);
    rank_ = k + 1;
  }
}

std::vector<Real> PivotedQr::solve(std::span<const Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == qr_.rows());
  // y = Q' b over the first rank_ reflectors, then back-substitute the
  // leading rank_ x rank_ triangle in place.
  std::vector<Real> y(b.begin(), b.end());
  const auto rank = static_cast<std::size_t>(rank_);
  reflect_qt(qr_, std::span<const Real>(tau_).first(rank), y);
  solve_upper_triangular(qr_, std::span<Real>(y).first(rank));

  // Scatter through the permutation; dependent columns get exact zeros.
  std::vector<Real> x(static_cast<std::size_t>(qr_.cols()), Real{0});
  for (std::size_t k = 0; k < rank; ++k)
    x[static_cast<std::size_t>(perm_[k])] = y[k];
  return x;
}

std::vector<Real> least_squares_solve_pivoted(const Matrix& a,
                                              std::span<const Real> b) {
  return PivotedQr(a).solve(b);
}

}  // namespace rsm
