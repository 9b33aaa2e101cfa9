// Sparse response-surface model: the deliverable of the whole pipeline.
//
// Holds the selected basis functions with their coefficients and predicts
// f(dY) by evaluating only those functions — O(lambda) per prediction
// instead of O(M), which is the practical payoff of sparsity at use time
// (e.g., a 21 311-term dictionary reduced to 36 active terms, Fig. 6).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "basis/dictionary.hpp"
#include "util/common.hpp"

namespace rsm {

/// One active model term: dictionary column + fitted coefficient.
struct ModelTerm {
  Index basis_index = 0;
  Real coefficient = 0;
};

class SparseModel {
 public:
  SparseModel() = default;

  /// Terms must reference valid dictionary columns; zero-coefficient terms
  /// are dropped.
  SparseModel(std::shared_ptr<const BasisDictionary> dictionary,
              std::vector<ModelTerm> terms);

  /// Builds from a dense coefficient vector (length = dictionary size),
  /// keeping entries with |coef| > threshold.
  [[nodiscard]] static SparseModel from_dense(
      std::shared_ptr<const BasisDictionary> dictionary,
      std::span<const Real> coefficients, Real threshold = 0);

  [[nodiscard]] const BasisDictionary& dictionary() const;

  /// The shared ownership handle (null for a default-constructed model);
  /// lets derived models (e.g. refit_model) share the same dictionary.
  [[nodiscard]] const std::shared_ptr<const BasisDictionary>& dictionary_ptr()
      const {
    return dictionary_;
  }
  [[nodiscard]] const std::vector<ModelTerm>& terms() const { return terms_; }
  [[nodiscard]] Index num_terms() const {
    return static_cast<Index>(terms_.size());
  }

  /// f(dY) for one sample (size = dictionary().num_variables()).
  [[nodiscard]] Real predict(std::span<const Real> sample) const;

  /// Analytic gradient df/d(dY) at a sample point, via the Hermite
  /// derivative identity g_n' = sqrt(n) g_{n-1}. O(lambda * terms-per-index)
  /// — the sensitivity vector behind worst-case corner search. The one-row
  /// case of gradient_batch's engine.
  [[nodiscard]] std::vector<Real> gradient(std::span<const Real> sample) const;

  /// Predictions for each row of `samples`.
  [[nodiscard]] std::vector<Real> predict_all(const Matrix& samples) const;

  /// Predictions for each row of `samples` (K x num_variables), written into
  /// `out` (size K). Evaluates the Hermite recurrence across contiguous
  /// sample blocks — one memoized order column per (active variable, order)
  /// instead of per-sample recursion — while executing the exact elementwise
  /// arithmetic of `predict` in the same order, so results are bit-identical
  /// to the scalar path. This is the serving-layer fast path.
  void predict_batch(const Matrix& samples, std::span<Real> out) const;

  /// Same engine over a raw row-major block of `rows` samples (size
  /// rows * num_variables) — lets callers evaluate sub-ranges of a larger
  /// buffer (e.g. the server splitting one request across pool workers)
  /// without copying into a Matrix.
  void predict_batch(std::span<const Real> samples, Index rows,
                     std::span<Real> out) const;

  /// Gradients for each row of `samples`: returns a K x num_variables
  /// matrix whose row k is `gradient(samples.row(k))` — per term, one factor
  /// differentiated, the others multiplied in stored order, exactly-zero
  /// partials skipped.
  [[nodiscard]] Matrix gradient_batch(const Matrix& samples) const;

  /// Analytic mean of the model under dY ~ N(0, I): the coefficient of the
  /// constant basis function (orthonormality kills every other term).
  [[nodiscard]] Real analytic_mean() const;

  /// Analytic variance under dY ~ N(0, I): sum of squared non-constant
  /// coefficients (Parseval over the orthonormal basis).
  [[nodiscard]] Real analytic_variance() const;

  /// Analytic third central moment under dY ~ N(0, I), via Hermite
  /// linearization coefficients: sum over term triples of
  /// a_i a_j a_k * prod_v E[g_{oi(v)} g_{oj(v)} g_{ok(v)}].
  /// O(lambda^3 * variables-per-term) — fine for sparse models.
  [[nodiscard]] Real analytic_third_moment() const;

  /// Standardized skewness mu3 / sigma^3 (0 for linear models — they are
  /// exactly Gaussian; nonzero only with quadratic/higher terms).
  [[nodiscard]] Real analytic_skewness() const;

  /// Human-readable listing, largest |coefficient| first.
  [[nodiscard]] std::string to_string(Index max_terms = 20) const;

  /// Text serialization (stable across platforms).
  void save(std::ostream& out) const;

  /// Loads a model saved with `save`; the dictionary must match the one the
  /// model was built with (indices are dictionary positions).
  [[nodiscard]] static SparseModel load(
      std::istream& in, std::shared_ptr<const BasisDictionary> dictionary);

 private:
  // One factor of a model term in the packed evaluation plan. `slot` indexes
  // the model's active-variable list (much shorter than the dictionary's
  // variable count for sparse models), `order` is the Hermite order (always
  // >= 1 — multi-indices store nonzero orders only).
  struct PlanFactor {
    std::uint32_t slot = 0;
    std::int32_t order = 0;
  };

  /// Derives the packed evaluation plan from terms_: the sorted active
  /// variable set, per-variable max orders and memo-table offsets, and a
  /// flattened per-term factor list. Called from the constructor so every
  /// model (fit, loaded, refit) carries its plan.
  void build_plan();

  /// The block engine behind predict_batch and gradient_rows: for each
  /// block of up to kEvalBlock rows of the row-major `samples`, fills the
  /// order columns (orders 1..max_order of every active variable) by the
  /// batched Hermite recurrence, then calls body(table, first_row, rows).
  /// The one copy of that recurrence; a template so the fill and the body
  /// compile into one loop.
  template <class Body>
  void for_each_block(std::span<const Real> samples, Index rows,
                      const Body& body) const;

  /// Offset of factor `pf`'s order column in that table.
  [[nodiscard]] std::size_t column_offset(PlanFactor pf) const;

  /// The gradient engine: adds the gradient of each of the `rows` row-major
  /// samples into the matching row of `grad` (same size, zeroed by the
  /// caller).
  void gradient_rows(std::span<const Real> samples, Index rows,
                     std::span<Real> grad) const;

  std::shared_ptr<const BasisDictionary> dictionary_;
  std::vector<ModelTerm> terms_;

  // Packed evaluation plan (derived from terms_; see build_plan).
  std::vector<Index> plan_vars_;             // active variables, ascending
  std::vector<int> plan_var_max_order_;      // per active variable
  std::vector<std::size_t> plan_var_offset_; // order-0 offset into the table
  std::size_t plan_table_size_ = 0;          // sum of (max_order + 1)
  std::vector<PlanFactor> plan_factors_;     // factors, term-major
  std::vector<std::size_t> plan_term_begin_; // terms_.size() + 1 offsets
};

}  // namespace rsm
