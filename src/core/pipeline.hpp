// High-level modeling pipeline: the library's main entry point.
//
//   auto dict = std::make_shared<BasisDictionary>(
//       BasisDictionary::quadratic(num_variables));
//   BuildOptions opt;                  // OMP + 4-fold CV by default
//   BuildReport report = build_model(dict, train_samples, train_values, opt);
//   Real prediction = report.model.predict(some_dY);
//
// The pipeline evaluates the dictionary on the training samples, fits the
// requested method (with Q-fold cross-validation selecting lambda for the
// sparse methods), and refits the final model on all training data.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/model.hpp"
#include "core/solver_path.hpp"
#include "util/common.hpp"

namespace rsm {

/// The four modeling techniques compared throughout the paper's Section V.
enum class Method {
  kLeastSquares,  // traditional over-determined LS fitting [21]
  kStar,          // statistical regression, DAC'08 [1]
  kLar,           // least angle regression, DAC'09 [2]
  kOmp,           // orthogonal matching pursuit (this paper)
};

[[nodiscard]] const char* method_name(Method method);

/// Factory for the sparse path solvers (throws for kLeastSquares, which is
/// not a path method).
[[nodiscard]] std::unique_ptr<PathSolver> make_path_solver(Method method);

struct BuildOptions {
  Method method = Method::kOmp;

  /// Upper bound on selected terms for the sparse methods; CV picks the
  /// actual lambda <= this.
  Index max_lambda = 100;

  /// Q-fold cross-validation configuration.
  int cv_folds = 4;
  std::uint64_t cv_seed = 7;

  /// Skip CV and use exactly max_lambda terms (faster; for experiments
  /// where lambda is known).
  bool skip_cross_validation = false;

  /// Ridge strength for the LS baseline (0 = plain LS).
  Real ridge = 0;
};

struct BuildReport {
  SparseModel model;
  Method method = Method::kOmp;

  /// Number of active terms in the final model.
  Index lambda = 0;

  /// CV diagnostics (empty when CV was skipped or method is LS).
  CrossValidationResult cv;

  /// Wall-clock fitting cost in seconds (everything after simulation:
  /// design-matrix evaluation + CV + final fit), the paper's "fitting cost".
  double fit_seconds = 0;

  /// Training-set relative RMS error of the final model.
  Real training_error = 0;
};

/// Fits a model of `values` (size K) sampled at `samples` (K x N) over the
/// dictionary. N must equal dictionary->num_variables().
[[nodiscard]] BuildReport build_model(
    std::shared_ptr<const BasisDictionary> dictionary, const Matrix& samples,
    std::span<const Real> values, const BuildOptions& options = {});

/// Same, but with a pre-evaluated design matrix G (K x dictionary->size()).
/// Benchmarks comparing several methods on identical data use this to share
/// the design-matrix evaluation.
[[nodiscard]] BuildReport build_model_from_design(
    std::shared_ptr<const BasisDictionary> dictionary, const Matrix& design,
    std::span<const Real> values, const BuildOptions& options = {});

/// Relative RMS error of `model` on an independent testing set.
[[nodiscard]] Real validate_model(const SparseModel& model,
                                  const Matrix& test_samples,
                                  std::span<const Real> test_values);

/// De-biases a sparse model: keeps its support, re-solves the coefficients
/// by unpenalized least squares on (samples, values). A no-op for OMP
/// output (Algorithm 1's Step 6 is already an LS re-fit), but removes the
/// L1 shrinkage from LAR/LASSO models — the standard "relaxed lasso" move.
[[nodiscard]] SparseModel refit_model(const SparseModel& model,
                                      const Matrix& samples,
                                      std::span<const Real> values);

}  // namespace rsm
