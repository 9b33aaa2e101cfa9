// Common solver interface: every sparse method emits a *path* of nested (or
// breakpoint) models, one per sparsity level lambda.
//
// Cross-validation (Section IV-C) needs the modeling error as a 1-D function
// of lambda; emitting the whole path in one fit makes the Q-fold CV cost
// Q * (one path fit) instead of Q * lambda_max separate fits.
#pragma once

#include <span>
#include <vector>

#include "core/column_source.hpp"
#include "util/common.hpp"

namespace rsm {

/// The sequence of models produced by one solver run.
///
/// Step t (0-based) uses `active[s]` for s <= t with coefficients
/// `coefficients[t]` (same length as the active prefix). For OMP/STAR the
/// active sets are nested by construction; for LAR each step is a breakpoint
/// of the piecewise-linear coefficient path (and with the LASSO modification
/// a variable can leave, recorded via `active_sets` overriding the prefix).
struct SolverPath {
  /// Column indices in order of first selection (OMP/STAR: the prefix of
  /// length t+1 is step t's support).
  std::vector<Index> selection_order;

  /// coefficients[t][s] multiplies column support(t)[s].
  std::vector<std::vector<Real>> coefficients;

  /// Non-empty only when supports are not prefixes of selection_order
  /// (LASSO drops); active_sets[t] then lists step t's support explicitly.
  std::vector<std::vector<Index>> active_sets;

  /// Residual 2-norm after each step (diagnostic).
  std::vector<Real> residual_norms;

  [[nodiscard]] Index num_steps() const {
    return static_cast<Index>(coefficients.size());
  }

  /// Support of step t (indices into the design-matrix columns).
  [[nodiscard]] std::vector<Index> support(Index t) const;

  /// Dense coefficient vector (length num_columns) of step t.
  [[nodiscard]] std::vector<Real> dense_coefficients(Index t,
                                                     Index num_columns) const;
};

/// Abstract path-emitting sparse solver. G arrives as a ColumnSource: an
/// explicit matrix (MaterializedSource), some of its rows (a CV fold) or a
/// lazily evaluated dictionary (DictionarySource).
class PathSolver {
 public:
  virtual ~PathSolver() = default;

  /// Fits up to `max_steps` steps of the path for min ||G a - F||_2 with the
  /// method's sparsity heuristic. F.size() == g.rows(). Cross-validation
  /// runs its folds' fits at once on one solver object, so an override must
  /// be safe to call concurrently: it may not write shared state.
  [[nodiscard]] virtual SolverPath fit_path(const ColumnSource& g,
                                            std::span<const Real> f,
                                            Index max_steps) const = 0;

  /// Method name for reports ("OMP", "STAR", "LAR", ...).
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace rsm
