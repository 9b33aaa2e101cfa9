// Least angle regression (Efron, Hastie, Johnstone, Tibshirani 2004) — the
// solver contributed by the DAC 2009 paper [2].
//
// LAR relaxes the L0 constraint of eq. (11) to an L1 constraint and traces
// the whole regularization path: starting from alpha = 0 it moves the
// coefficients of the currently most-correlated ("least angle") set along
// the equiangular direction until an inactive column ties, then admits it.
// With the LASSO modification enabled, a coefficient hitting zero leaves the
// active set, making the path exactly the LASSO solution path.
//
// Implementation notes:
//  - columns are normalized to unit 2-norm without copying G: one pass
//    over the columns takes their norms, each correlation scan is scaled
//    per column, and only the normalized active columns are kept, in one
//    contiguous K x lambda block; reported coefficients are de-normalized
//    back to design-matrix scale;
//  - the active-set Gram matrix is factored by linalg's
//    CholeskyFactorization, grown one row per admitted column (O(p^2)) and,
//    after a LASSO drop, cleared and re-grown from the remaining columns;
//  - per step the dominant cost is one K x M correlation, a = G'u for the
//    equiangular vector u, as OMP's one scan is: c = G'r is scanned once at
//    the start and each move then updates it in place, c -= gamma a
//    (Efron et al., eq. 2.13), so a whole path costs about one
//    least-squares fit (their Section 7);
//  - the active columns' |c| are equal in exact arithmetic, so their spread
//    measures the update's rounding drift: once it exceeds 1e-9 of the
//    largest, the next event rescans c from the residual f - mu (counted
//    by the lar.rescans metric).
#pragma once

#include "core/solver_path.hpp"

namespace rsm {

class LarSolver final : public PathSolver {
 public:
  struct Options {
    /// Apply the LASSO modification (drop variables whose coefficient
    /// crosses zero). Off = pure LAR, as used in the paper.
    bool lasso = false;
  };

  LarSolver() = default;
  explicit LarSolver(const Options& options) : options_(options) {}

  [[nodiscard]] SolverPath fit_path(const ColumnSource& source,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "LAR"; }

 private:
  Options options_;
};

}  // namespace rsm
