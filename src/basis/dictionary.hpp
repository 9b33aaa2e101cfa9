// Basis dictionary: a list of multi-indices plus design-matrix construction.
//
// Given K samples of dY (rows of a K x N matrix), the dictionary produces the
// K x M design matrix G of eq. (6)-(8): G(k, m) = g_m(dY^(k)). For the
// paper's quadratic OpAmp model M = 20 301 and K = 1000, so G is ~160 MB,
// built once, unzeroed, by every core; the dictionary also offers per-row
// and per-column evaluation for streaming use.
#pragma once

#include <span>
#include <vector>

#include "basis/multi_index.hpp"
#include "linalg/matrix.hpp"
#include "util/common.hpp"

namespace rsm {

class ThreadPool;

class BasisDictionary {
 public:
  BasisDictionary(Index num_variables, std::vector<MultiIndex> indices);

  /// Convenience factories mirroring multi_index.hpp generators.
  [[nodiscard]] static BasisDictionary linear(Index num_variables);
  [[nodiscard]] static BasisDictionary quadratic(Index num_variables);
  [[nodiscard]] static BasisDictionary total_degree(Index num_variables,
                                                    int degree);
  [[nodiscard]] static BasisDictionary hyperbolic(Index num_variables,
                                                  int degree);

  [[nodiscard]] Index num_variables() const { return num_variables_; }
  [[nodiscard]] Index size() const {
    return static_cast<Index>(indices_.size());
  }

  [[nodiscard]] const MultiIndex& index(Index m) const;
  [[nodiscard]] const std::vector<MultiIndex>& indices() const {
    return indices_;
  }

  /// g_m evaluated at one sample point (sample.size() == num_variables).
  [[nodiscard]] Real evaluate(Index m, std::span<const Real> sample) const;

  /// Column G_m of the design matrix for all rows of `samples` (K x N).
  [[nodiscard]] std::vector<Real> evaluate_column(Index m,
                                                  const Matrix& samples) const;

  /// Full design matrix G (K x M), one evaluate_row per sample. The rows
  /// split into contiguous parts on shared_pool() (a plain loop when it is
  /// nullptr); each part keeps its own Hermite table, so every entry has
  /// the same bits at any thread count.
  [[nodiscard]] Matrix design_matrix(const Matrix& samples) const;

  /// The same matrix with its row parts on `pool` and the calling thread,
  /// or on the calling thread alone when `pool` is nullptr.
  [[nodiscard]] Matrix design_matrix(const Matrix& samples,
                                     ThreadPool* pool) const;

  /// Row of the design matrix for one sample into `out` (length M). Builds
  /// the per-variable Hermite order table in `table` first (caller-owned
  /// scratch, resized here), so each 1-D factor is evaluated once per
  /// (variable, order) and every g_m is a product of table lookups.
  void evaluate_row(std::span<const Real> sample, std::vector<Real>& table,
                    std::span<Real> out) const;

  /// Highest Hermite order appearing in any index.
  [[nodiscard]] int max_order() const { return max_order_; }

 private:
  Index num_variables_;
  std::vector<MultiIndex> indices_;
  int max_order_ = 0;
};

}  // namespace rsm
