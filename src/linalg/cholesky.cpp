#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/blas.hpp"
#include "util/errors.hpp"

namespace rsm {

CholeskyFactorization::CholeskyFactorization(const Matrix& a)
    : CholeskyFactorization(a.rows()) {
  RSM_CHECK_MSG(a.rows() == a.cols(), "Cholesky needs a square matrix");
  for (Index j = 0; j < a.rows(); ++j) {
    if (!append(a.row(j).first(static_cast<std::size_t>(j)), a(j, j),
                Real{0})) {
      throw SingularMatrixError("matrix not positive definite at pivot " +
                                std::to_string(j));
    }
  }
}

CholeskyFactorization::CholeskyFactorization(Index capacity)
    : l_(capacity, capacity) {}

bool CholeskyFactorization::append(std::span<const Real> cross, Real diagonal,
                                   Real tolerance) {
  RSM_CHECK(static_cast<Index>(cross.size()) == size_);
  RSM_CHECK_MSG(size_ < l_.rows(), "Cholesky capacity exhausted");
  // The new row l solves L l = cross; its pivot is what l leaves of the
  // diagonal. Row size_ holds work in progress until the pivot passes.
  const std::span<Real> row = l_.row(size_);
  std::copy(cross.begin(), cross.end(), row.begin());
  solve_lower_triangular(l_, row.first(cross.size()));
  Real d = diagonal;
  for (std::size_t k = 0; k < cross.size(); ++k) d -= row[k] * row[k];
  if (!(d > tolerance * diagonal)) return false;
  row[cross.size()] = std::sqrt(d);
  ++size_;
  return true;
}

std::vector<Real> CholeskyFactorization::solve_lower(
    std::span<const Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == size_);
  std::vector<Real> y(b.begin(), b.end());
  solve_lower_triangular(l_, y);
  return y;
}

std::vector<Real> CholeskyFactorization::solve_upper(
    std::span<const Real> y) const {
  RSM_CHECK(static_cast<Index>(y.size()) == size_);
  std::vector<Real> x(y.begin(), y.end());
  solve_lower_transposed(l_, x);
  return x;
}

std::vector<Real> CholeskyFactorization::solve(std::span<const Real> b) const {
  std::vector<Real> x = solve_lower(b);
  solve_lower_transposed(l_, x);
  return x;
}

Matrix CholeskyFactorization::l() const {
  Matrix l(size_, size_);
  for (Index i = 0; i < size_; ++i)
    std::copy_n(l_.row(i).begin(), i + 1, l.row(i).begin());
  return l;
}

Real CholeskyFactorization::log_determinant() const {
  Real sum = 0;
  for (Index i = 0; i < size(); ++i) sum += std::log(l_(i, i));
  return 2 * sum;
}

std::vector<Real> cholesky_solve(const Matrix& a, std::span<const Real> b) {
  return CholeskyFactorization(a).solve(b);
}

}  // namespace rsm
