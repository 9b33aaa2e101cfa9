// Q-fold cross-validation for choosing lambda (Section IV-C, Fig. 2).
//
// The data set is partitioned into Q groups; each run trains a full solver
// path on Q-1 groups and evaluates the error curve eps_q(lambda) on the held
// out group. The averaged curve eps(lambda) is minimized to select lambda*,
// and the final model is refit on all samples at lambda*.
#pragma once

#include <span>
#include <vector>

#include "core/solver_path.hpp"
#include "stats/rng.hpp"
#include "util/common.hpp"

namespace rsm {

struct CrossValidationResult {
  /// eps(lambda) averaged over folds; index t = lambda of t+1 terms.
  std::vector<Real> error_curve;

  /// argmin of error_curve + 1 (number of selected terms).
  Index best_lambda = 0;

  /// error_curve value at the optimum.
  Real best_error = 0;

  /// Per-fold curves (diagnostic; rows = folds). A skipped fold leaves an
  /// empty curve at its position.
  std::vector<std::vector<Real>> fold_curves;

  /// Folds whose path fit failed (degenerate training block) or whose
  /// held-out curve holds a NaN or Inf, excluded from the averaged curve
  /// rather than aborting the CV run.
  int skipped_folds = 0;
};

class CrossValidator {
 public:
  struct Options {
    int num_folds = 4;      // Q; the paper's Fig. 2 uses 4
    std::uint64_t seed = 7; // fold-assignment shuffle seed
  };

  CrossValidator() = default;
  explicit CrossValidator(const Options& options);

  /// Runs Q-fold CV of `solver` on (g, f), with paths up to `max_lambda`
  /// (>= 1) terms, scoring with relative_rms_error on the held-out fold.
  /// Each training fold is a row view of g (MaterializedSource over the
  /// fold's rows); held-out scoring reads only the columns a path selects.
  /// The folds run concurrently as parts of shared_pool()->parallel_for
  /// (one after another when RSM_THREADS=1); warnings, fold events and the
  /// first fatal error follow fold order, so the result is bit-identical
  /// for any thread count.
  [[nodiscard]] CrossValidationResult run(const PathSolver& solver,
                                          const Matrix& g,
                                          std::span<const Real> f,
                                          Index max_lambda) const;

 private:
  Options options_;
};

}  // namespace rsm
