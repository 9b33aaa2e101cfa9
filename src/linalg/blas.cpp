#include "linalg/blas.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"

namespace rsm {

void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y) {
  RSM_CHECK(static_cast<Index>(x.size()) == a.cols());
  RSM_CHECK(static_cast<Index>(y.size()) == a.rows());
  for (Index r = 0; r < a.rows(); ++r)
    y[static_cast<std::size_t>(r)] = dot(a.row(r), x);
}

void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows) {
  const bool all_rows = rows.empty();
  RSM_CHECK(static_cast<Index>(x.size()) ==
            (all_rows ? a.rows() : static_cast<Index>(rows.size())));
  RSM_CHECK(static_cast<Index>(y.size()) == a.cols());
  for (Index r : rows) RSM_CHECK(r >= 0 && r < a.rows());
  std::fill(y.begin(), y.end(), Real{0});
  for (std::size_t i = 0; i < x.size(); ++i)
    axpy(x[i], a.row(all_rows ? static_cast<Index>(i) : rows[i]), y);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  RSM_CHECK(a.cols() == b.rows());
  RSM_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  c.set_zero();
  constexpr Index kBlock = 64;
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  for (Index i0 = 0; i0 < m; i0 += kBlock) {
    const Index i1 = std::min(i0 + kBlock, m);
    for (Index k0 = 0; k0 < k; k0 += kBlock) {
      const Index k1 = std::min(k0 + kBlock, k);
      for (Index i = i0; i < i1; ++i) {
        Real* crow = c.row(i).data();
        for (Index kk = k0; kk < k1; ++kk) {
          const Real aik = a(i, kk);
          if (aik == Real{0}) continue;
          const Real* brow = b.row(kk).data();
          for (Index j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

Matrix gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix g(n, n);
  // Accumulate row outer products: G += a_r a_r' (upper triangle only).
  for (Index r = 0; r < a.rows(); ++r) {
    std::span<const Real> row = a.row(r);
    for (Index i = 0; i < n; ++i) {
      const Real ai = row[static_cast<std::size_t>(i)];
      if (ai == Real{0}) continue;
      Real* grow = g.row(i).data();
      for (Index j = i; j < n; ++j)
        grow[j] += ai * row[static_cast<std::size_t>(j)];
    }
  }
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < i; ++j) g(i, j) = g(j, i);
  return g;
}

}  // namespace rsm
