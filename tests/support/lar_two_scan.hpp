// Least angle regression with two correlation scans per step.
//
// The textbook loop: every event recomputes the correlations c = X'r from
// the residual before it admits a column, and scans a = X'u for the step
// length, where LarSolver scans c once and then updates it in place. Both
// modes (pure LAR and the LASSO modification) follow LarSolver's arithmetic
// otherwise, so the two paths select the same columns and their
// coefficients differ by rounding only. A test oracle: the reference the
// one-scan update is checked against.
#pragma once

#include "core/lar.hpp"

namespace rsm {

class TwoScanLarSolver final : public PathSolver {
 public:
  TwoScanLarSolver() = default;
  explicit TwoScanLarSolver(const LarSolver::Options& options)
      : options_(options) {}

  [[nodiscard]] SolverPath fit_path(const ColumnSource& source,
                                    std::span<const Real> f,
                                    Index max_steps) const override;

  [[nodiscard]] const char* name() const override { return "LAR-two-scan"; }

 private:
  LarSolver::Options options_;
};

}  // namespace rsm
