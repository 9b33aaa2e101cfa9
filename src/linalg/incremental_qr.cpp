#include "linalg/incremental_qr.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"

namespace rsm {

IncrementalQr::IncrementalQr(Index rows, Index max_cols)
    : rows_(rows), max_cols_(max_cols), r_(max_cols, max_cols) {
  RSM_CHECK(rows > 0 && max_cols > 0);
  RSM_CHECK_MSG(max_cols <= rows,
                "cannot have more independent columns than rows");
  q_.reserve(static_cast<std::size_t>(rows * max_cols));
}

bool IncrementalQr::append_column(std::span<const Real> column,
                                  Real dependence_tol) {
  RSM_CHECK(static_cast<Index>(column.size()) == rows_);
  RSM_CHECK_MSG(num_cols_ < max_cols_, "IncrementalQr capacity exhausted");

  const Real norm_in = nrm2(column);
  std::vector<Real> v(column.begin(), column.end());
  std::vector<Real> rcol(static_cast<std::size_t>(num_cols_), Real{0});

  // Two MGS passes: the second pass mops up the cancellation error of the
  // first, keeping Q orthonormal to machine precision even for nearly
  // dependent inputs.
  for (int pass = 0; pass < 2; ++pass) {
    for (Index j = 0; j < num_cols_; ++j) {
      const Real c = dot(q_column(j), v);
      rcol[static_cast<std::size_t>(j)] += c;
      axpy(-c, q_column(j), v);
    }
  }

  const Real norm_rem = nrm2(v);
  if (norm_rem <= dependence_tol * std::max(norm_in, Real{1e-300})) {
    return false;  // numerically dependent; reject
  }

  for (Index j = 0; j < num_cols_; ++j)
    r_(j, num_cols_) = rcol[static_cast<std::size_t>(j)];
  r_(num_cols_, num_cols_) = norm_rem;

  const Real inv = Real{1} / norm_rem;
  for (Real x : v) q_.push_back(x * inv);
  ++num_cols_;
  return true;
}

void IncrementalQr::remove_column(Index j) {
  RSM_CHECK(j >= 0 && j < num_cols_);
  // Shift R's columns left past j: R becomes upper-Hessenberg in columns
  // j..end (one subdiagonal entry per column).
  for (Index c = j; c < num_cols_ - 1; ++c)
    for (Index r = 0; r <= c + 1; ++r) r_(r, c) = r_(r, c + 1);
  for (Index r = 0; r < num_cols_; ++r) r_(r, num_cols_ - 1) = 0;
  --num_cols_;

  // Annihilate the subdiagonal with Givens rotations G acting on rows
  // (k, k+1) of R; fold G' into the corresponding columns of Q so that
  // Q R stays equal to the retained columns.
  for (Index k = j; k < num_cols_; ++k) {
    const Real a = r_(k, k);
    const Real b = r_(k + 1, k);
    if (b == Real{0}) continue;
    const Real h = std::hypot(a, b);
    const Real c = a / h;
    const Real s = b / h;
    // Rows k and k+1 of R.
    for (Index col = k; col < num_cols_; ++col) {
      const Real rk = r_(k, col);
      const Real rk1 = r_(k + 1, col);
      r_(k, col) = c * rk + s * rk1;
      r_(k + 1, col) = -s * rk + c * rk1;
    }
    // Columns k and k+1 of Q (explicit storage, column-major).
    Real* qk = q_.data() + k * rows_;
    Real* qk1 = q_.data() + (k + 1) * rows_;
    for (Index r = 0; r < rows_; ++r) {
      const Real vk = qk[r];
      const Real vk1 = qk1[r];
      qk[r] = c * vk + s * vk1;
      qk1[r] = -s * vk + c * vk1;
    }
  }
  // Drop the now-unused trailing Q column.
  q_.resize(static_cast<std::size_t>(num_cols_ * rows_));
}

std::span<const Real> IncrementalQr::q_column(Index j) const {
  RSM_DCHECK(j >= 0 && j < num_cols_);
  return {q_.data() + j * rows_, static_cast<std::size_t>(rows_)};
}

std::vector<Real> IncrementalQr::project(std::span<const Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == rows_);
  std::vector<Real> qtb(static_cast<std::size_t>(num_cols_));
  for (Index j = 0; j < num_cols_; ++j)
    qtb[static_cast<std::size_t>(j)] = dot(q_column(j), b);
  return qtb;
}

std::vector<Real> IncrementalQr::solve(std::span<const Real> b) const {
  std::vector<Real> x = project(b);
  solve_upper_triangular(r_, x);
  return x;
}

std::vector<Real> IncrementalQr::residual(std::span<const Real> b) const {
  RSM_CHECK(static_cast<Index>(b.size()) == rows_);
  std::vector<Real> res(b.begin(), b.end());
  for (Index j = 0; j < num_cols_; ++j) {
    const Real c = dot(q_column(j), res);
    axpy(-c, q_column(j), res);
  }
  return res;
}

}  // namespace rsm
