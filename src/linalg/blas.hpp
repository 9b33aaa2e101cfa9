// Level-2/3 kernels: matrix-vector and blocked matrix-matrix products.
//
// The OMP correlation scan (Step 3 of Algorithm 1) is a GEMV with the design
// matrix transposed, so these kernels dominate solver runtime at the paper's
// problem sizes (M ~ 2*10^4 columns, K ~ 10^3 rows).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class ThreadPool;

/// y = A * x.
void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y);

/// Multiply-adds (rows x columns) a gemv_transposed slice must carry
/// before it is worth handing to another thread; a scan splits into at
/// most rows * columns / kScanSliceWork column slices.
inline constexpr std::size_t kScanSliceWork = std::size_t{1} << 17;

/// y = A' * x  without materializing the transpose (row-major friendly:
/// accumulates row r of A scaled by x[r] into y). A non-empty `rows` reads A
/// as the matrix of those rows in list order (x[i] scales row rows[i]), bit
/// for bit what copying them out first would give: cross-validation folds
/// read G's training rows in place this way.
///
/// A large scan splits y's columns into slices that run on shared_pool()
/// and the calling thread. Each y[j] is summed by one thread in row order,
/// so the result is bit-identical for every thread count.
void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows = {});

/// The same scan with its slices on `pool` and the calling thread, or on
/// the calling thread alone when `pool` is nullptr.
void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows,
                     ThreadPool* pool);

/// C = A * B (C must be preallocated to a.rows() x b.cols()). Blocked i-k-j
/// loop order for row-major locality.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A' * A, exploiting symmetry (only the upper triangle is computed then
/// mirrored). Used to form Gram matrices for normal-equation solves.
[[nodiscard]] Matrix gram(const Matrix& a);

}  // namespace rsm
