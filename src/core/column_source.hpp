// The one input of every path solver: access to the design matrix G.
//
// The paper targets up to 10^6 model coefficients; at K = 10^3 samples a
// materialized design matrix would be 8 GB. A ColumnSource abstracts "the
// K x M matrix G" behind two operations — correlate a residual against every
// column, and fetch one column — which is all OMP, STAR and LAR need. The
// same solvers then run on an explicit matrix, on some of its rows (a
// cross-validation fold), or on a dictionary evaluated lazily in O(K * N)
// memory.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "basis/dictionary.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  [[nodiscard]] virtual Index rows() const = 0;
  [[nodiscard]] virtual Index num_columns() const = 0;

  /// out[j] = G_j' x for every column j. out.size() == num_columns().
  virtual void correlate(std::span<const Real> x, std::span<Real> out) const = 0;

  /// Materializes column j. out.size() == rows().
  virtual void column(Index j, std::span<Real> out) const = 0;
};

/// Wraps an explicit matrix, or a subset of its rows read in place.
class MaterializedSource final : public ColumnSource {
 public:
  explicit MaterializedSource(const Matrix& g) : g_(&g) {}

  /// Rows `rows` of g in list order: row i of this source is g.row(rows[i]).
  /// Cross-validation reads its training folds this way instead of copying
  /// them. Both g and `rows` are kept by reference; `rows` is not empty.
  MaterializedSource(const Matrix& g, std::span<const Index> rows);

  [[nodiscard]] Index rows() const override {
    return rows_.empty() ? g_->rows() : static_cast<Index>(rows_.size());
  }
  [[nodiscard]] Index num_columns() const override { return g_->cols(); }
  void correlate(std::span<const Real> x, std::span<Real> out) const override;
  void column(Index j, std::span<Real> out) const override;

 private:
  const Matrix* g_;
  std::span<const Index> rows_;  // empty: all of g's rows
};

/// Evaluates dictionary columns on demand: the correlation scan walks the
/// samples row by row through BasisDictionary::evaluate_row, so memory
/// stays O(N * max_order + M) regardless of K — this is what makes
/// M ~ 10^6 feasible.
class DictionarySource final : public ColumnSource {
 public:
  /// `samples` is the K x N sample matrix (kept by reference; caller owns).
  DictionarySource(std::shared_ptr<const BasisDictionary> dictionary,
                   const Matrix& samples);

  [[nodiscard]] Index rows() const override { return samples_->rows(); }
  [[nodiscard]] Index num_columns() const override {
    return dictionary_->size();
  }
  void correlate(std::span<const Real> x, std::span<Real> out) const override;
  void column(Index j, std::span<Real> out) const override;

 private:
  std::shared_ptr<const BasisDictionary> dictionary_;
  const Matrix* samples_;
};

}  // namespace rsm
