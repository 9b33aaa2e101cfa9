// Simultaneous orthogonal matching pursuit (S-OMP).
//
// Extension feature: the OpAmp's four metrics (gain, bandwidth, power,
// offset) are driven by an overlapping handful of device-level variations.
// S-OMP fits all responses at once, selecting at every iteration the basis
// vector with the largest *joint* correlation energy across responses, then
// re-solving each response's least-squares coefficients over the shared
// support. Compared to running OMP per response it
//   * amortizes the selection scans across responses, and
//   * yields one common support — smaller total model storage and a clean
//     answer to "which variations matter for this circuit at all?".
//
// Like the path solvers, S-OMP reads G only through a ColumnSource (one
// correlation scan per response and step, then the winning column), so it
// copies no column of G and runs on a row view or a streamed dictionary.
#pragma once

#include <vector>

#include "core/column_source.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

struct SompResult {
  /// Shared support, in selection order.
  std::vector<Index> support;

  /// coefficients[r] aligns with `support` for response r.
  std::vector<std::vector<Real>> coefficients;

  /// Residual 2-norm per response after the final step.
  std::vector<Real> residual_norms;
};

class SompSolver {
 public:
  struct Options {
    /// Joint selection score: sum over responses of the squared normalized
    /// correlation. Stop early when the best score falls below this times
    /// the first step's best score (0 = never stop early).
    Real score_tolerance = 0;
  };

  SompSolver() = default;
  explicit SompSolver(const Options& options) : options_(options) {}

  /// Fits all columns of `responses` (K x R) against the shared design
  /// matrix G (K x M, read through `source`) with a common support of up to
  /// `max_terms` columns. Columns are screened for dependence at
  /// IncrementalQr::kDependenceTolerance.
  [[nodiscard]] SompResult fit(const ColumnSource& source,
                               const Matrix& responses, Index max_terms) const;

 private:
  Options options_;
};

}  // namespace rsm
