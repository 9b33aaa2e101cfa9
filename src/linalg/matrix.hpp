// Dense row-major matrix type.
//
// Eigen is deliberately not a dependency: this library implements every
// numerical kernel the paper's algorithms need (QR least squares, Cholesky,
// Jacobi eigendecomposition, LU) from scratch on top of this type.
#pragma once

#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace rsm {
namespace detail {

/// std::allocator whose value-less construct() default-initializes, so a
/// vector of trivial elements sized by count is left unwritten instead of
/// zero-filled (Matrix::for_overwrite). Every construct() with a value
/// behaves as std::allocator's.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Dense row-major matrix of Real. Value semantics; cheap to move.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(Index rows, Index cols);

  /// rows x cols matrix whose entries are left unwritten (not zero-filled):
  /// for a caller that writes every entry before it reads one, such as a
  /// design matrix or a sample draw. Reading an entry first is undefined.
  [[nodiscard]] static Matrix for_overwrite(Index rows, Index cols);

  /// rows x cols matrix filled with `value`.
  Matrix(Index rows, Index cols, Real value);

  /// Construction from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<Real>> rows);

  [[nodiscard]] static Matrix identity(Index n);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] Index size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  Real& operator()(Index r, Index c) {
    RSM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  Real operator()(Index r, Index c) const {
    RSM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Contiguous view of row `r`.
  [[nodiscard]] std::span<Real> row(Index r);
  [[nodiscard]] std::span<const Real> row(Index r) const;

  /// Copies column `c` into a vector (columns are strided in row-major).
  [[nodiscard]] std::vector<Real> col(Index c) const;

  /// Writes `values` into column `c`.
  void set_col(Index c, std::span<const Real> values);

  [[nodiscard]] Real* data() { return data_.data(); }
  [[nodiscard]] const Real* data() const { return data_.data(); }

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] Real frobenius_norm() const;

  /// Resets all entries to zero without reallocating.
  void set_zero();

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(Real scalar);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Real, detail::DefaultInitAllocator<Real>> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, Real s);
[[nodiscard]] Matrix operator*(Real s, Matrix a);

/// Matrix product (delegates to the blocked GEMM kernel in blas.hpp).
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product A*x.
[[nodiscard]] std::vector<Real> operator*(const Matrix& a,
                                          std::span<const Real> x);

/// Maximum absolute entrywise difference; handy in tests.
[[nodiscard]] Real max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace rsm
