#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace rsm {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), Real{0}) {
  RSM_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(Index rows, Index cols, Real value)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), value) {
  RSM_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Real>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ > 0 ? static_cast<Index>(rows.begin()->size()) : 0;
  data_.reserve(static_cast<std::size_t>(rows_ * cols_));
  for (const auto& r : rows) {
    RSM_CHECK_MSG(static_cast<Index>(r.size()) == cols_,
                  "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::for_overwrite(Index rows, Index cols) {
  RSM_CHECK(rows >= 0 && cols >= 0);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<std::size_t>(rows * cols));
  return m;
}

Matrix Matrix::identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = Real{1};
  return m;
}

std::span<Real> Matrix::row(Index r) {
  RSM_DCHECK(r >= 0 && r < rows_);
  return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
}

std::span<const Real> Matrix::row(Index r) const {
  RSM_DCHECK(r >= 0 && r < rows_);
  return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
}

std::vector<Real> Matrix::col(Index c) const {
  RSM_DCHECK(c >= 0 && c < cols_);
  std::vector<Real> out(static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) out[static_cast<std::size_t>(r)] = (*this)(r, c);
  return out;
}

void Matrix::set_col(Index c, std::span<const Real> values) {
  RSM_CHECK(c >= 0 && c < cols_);
  RSM_CHECK(static_cast<Index>(values.size()) == rows_);
  for (Index r = 0; r < rows_; ++r)
    (*this)(r, c) = values[static_cast<std::size_t>(r)];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (Index r = 0; r < rows_; ++r)
    for (Index c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Real Matrix::frobenius_norm() const {
  Real sum = 0;
  for (Real v : data_) sum += v * v;
  return std::sqrt(sum);
}

void Matrix::set_zero() { std::fill(data_.begin(), data_.end(), Real{0}); }

Matrix& Matrix::operator+=(const Matrix& other) {
  RSM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  RSM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(Real scalar) {
  for (Real& v : data_) v *= scalar;
  return *this;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, Real s) { return a *= s; }
Matrix operator*(Real s, Matrix a) { return a *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  RSM_CHECK_MSG(a.cols() == b.rows(), "gemm shape mismatch: " << a.rows() << "x"
                                       << a.cols() << " * " << b.rows() << "x"
                                       << b.cols());
  Matrix c(a.rows(), b.cols());
  gemm(a, b, c);
  return c;
}

std::vector<Real> operator*(const Matrix& a, std::span<const Real> x) {
  RSM_CHECK(static_cast<Index>(x.size()) == a.cols());
  std::vector<Real> y(static_cast<std::size_t>(a.rows()));
  gemv(a, x, y);
  return y;
}

Real max_abs_diff(const Matrix& a, const Matrix& b) {
  RSM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Real m = 0;
  for (Index r = 0; r < a.rows(); ++r)
    for (Index c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

}  // namespace rsm
