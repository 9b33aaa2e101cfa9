#include "linalg/blas.hpp"

#include <algorithm>
#include <cstdint>

#include "linalg/vector_ops.hpp"
#include "util/thread_pool.hpp"

namespace rsm {

void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y) {
  RSM_CHECK(static_cast<Index>(x.size()) == a.cols());
  RSM_CHECK(static_cast<Index>(y.size()) == a.rows());
  for (Index r = 0; r < a.rows(); ++r)
    y[static_cast<std::size_t>(r)] = dot(a.row(r), x);
}

namespace {

/// Columns of y per 64-byte cache line.
constexpr std::size_t kLineBytes = 64;
constexpr std::size_t kLineReals = kLineBytes / sizeof(Real);

/// y[j0, j1) of y = A' x, where row i of A is a.row(rows[i]) (a.row(i) for
/// an empty list). Four rows per pass: each y[j] stays in a register while
/// x[i] * A(i, j) is added for the four rows in row order, the order of
/// one axpy per row, so no sum is reassociated and every y[j] is bit for
/// bit what the row-by-row sweep gives.
void scan_columns(const Matrix& a, std::span<const Real> x,
                  std::span<const Index> rows, Real* y, std::size_t j0,
                  std::size_t j1) {
  const auto row = [&](std::size_t i) {
    return a.row(rows.empty() ? static_cast<Index>(i) : rows[i]).data();
  };
  std::fill(y + j0, y + j1, Real{0});
  const std::size_t k = x.size();
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const Real x0 = x[i], x1 = x[i + 1], x2 = x[i + 2], x3 = x[i + 3];
    const Real *g0 = row(i), *g1 = row(i + 1), *g2 = row(i + 2),
               *g3 = row(i + 3);
    for (std::size_t j = j0; j < j1; ++j) {
      Real acc = y[j];
      acc += x0 * g0[j];
      acc += x1 * g1[j];
      acc += x2 * g2[j];
      acc += x3 * g3[j];
      y[j] = acc;
    }
  }
  for (; i < k; ++i) {
    const Real xi = x[i];
    const Real* gi = row(i);
    for (std::size_t j = j0; j < j1; ++j) y[j] += xi * gi[j];
  }
}

}  // namespace

void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows) {
  const bool split = x.size() * y.size() >= 2 * kScanSliceWork;
  gemv_transposed(a, x, y, rows, split ? shared_pool() : nullptr);
}

void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows,
                     ThreadPool* pool) {
  const bool all_rows = rows.empty();
  RSM_CHECK(static_cast<Index>(x.size()) ==
            (all_rows ? a.rows() : static_cast<Index>(rows.size())));
  RSM_CHECK(static_cast<Index>(y.size()) == a.cols());
  for (Index r : rows) RSM_CHECK(r >= 0 && r < a.rows());
  // Slices are whole cache lines of y, so no two threads write one line:
  // slice 0 also takes the `lead` columns before y's first line boundary.
  const std::size_t m = y.size();
  const std::size_t lead =
      (kLineBytes - reinterpret_cast<std::uintptr_t>(y.data()) % kLineBytes) %
      kLineBytes / sizeof(Real);
  const std::size_t lines = m > lead ? (m - lead) / kLineReals : 0;
  const std::size_t threads =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->num_workers()) + 1;
  const std::size_t slices =
      std::min({threads, x.size() * m / kScanSliceWork, lines});
  if (slices <= 1) {
    scan_columns(a, x, rows, y.data(), 0, m);
    return;
  }
  const auto edge = [&](std::size_t s) -> std::size_t {
    if (s == 0) return 0;
    return s == slices ? m : lead + lines * s / slices * kLineReals;
  };
  pool->parallel_for(slices, [&](std::size_t s) {
    scan_columns(a, x, rows, y.data(), edge(s), edge(s + 1));
  });
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
