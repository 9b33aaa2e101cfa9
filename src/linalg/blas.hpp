// Level-2/3 kernels: matrix-vector and blocked matrix-matrix products.
//
// The OMP correlation scan (Step 3 of Algorithm 1) is a GEMV with the design
// matrix transposed, so these kernels dominate solver runtime at the paper's
// problem sizes (M ~ 2*10^4 columns, K ~ 10^3 rows).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

/// y = A * x.
void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y);

/// y = A' * x  without materializing the transpose (row-major friendly:
/// accumulates row r of A scaled by x[r] into y). A non-empty `rows` reads A
/// as the matrix of those rows in list order (x[i] scales row rows[i]), bit
/// for bit what copying them out first would give: cross-validation folds
/// read G's training rows in place this way.
void gemv_transposed(const Matrix& a, std::span<const Real> x,
                     std::span<Real> y, std::span<const Index> rows = {});

/// C = A * B (C must be preallocated to a.rows() x b.cols()). Blocked i-k-j
/// loop order for row-major locality.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A' * A, exploiting symmetry (only the upper triangle is computed then
/// mirrored). Used to form Gram matrices for normal-equation solves.
[[nodiscard]] Matrix gram(const Matrix& a);

}  // namespace rsm
