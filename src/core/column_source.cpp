#include "core/column_source.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/vector_ops.hpp"

namespace rsm {

MaterializedSource::MaterializedSource(const Matrix& g,
                                       std::span<const Index> rows)
    : g_(&g), rows_(rows) {
  RSM_CHECK(!rows.empty());
  for (Index r : rows) RSM_CHECK(r >= 0 && r < g.rows());
}

void MaterializedSource::correlate(std::span<const Real> x,
                                   std::span<Real> out) const {
  gemv_transposed(*g_, x, out, rows_);
}

void MaterializedSource::column(Index j, std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == rows());
  RSM_CHECK(j >= 0 && j < g_->cols());
  for (Index r = 0; r < rows(); ++r)
    out[static_cast<std::size_t>(r)] =
        (*g_)(rows_.empty() ? r : rows_[static_cast<std::size_t>(r)], j);
}

DictionarySource::DictionarySource(
    std::shared_ptr<const BasisDictionary> dictionary, const Matrix& samples)
    : dictionary_(std::move(dictionary)), samples_(&samples) {
  RSM_CHECK(dictionary_ != nullptr);
  RSM_CHECK(samples.cols() == dictionary_->num_variables());
}

void DictionarySource::correlate(std::span<const Real> x,
                                 std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(x.size()) == rows());
  RSM_CHECK(static_cast<Index>(out.size()) == num_columns());
  // Row-at-a-time accumulation, in gemv_transposed's order: evaluate one
  // design row, add x[r] times it. Memory: one row and its Hermite table,
  // no K x M block at all.
  std::fill(out.begin(), out.end(), Real{0});
  std::vector<Real> table;
  std::vector<Real> row(out.size());
  for (Index r = 0; r < rows(); ++r) {
    const Real weight = x[static_cast<std::size_t>(r)];
    if (weight == Real{0}) continue;
    dictionary_->evaluate_row(samples_->row(r), table, row);
    axpy(weight, row, out);
  }
}

void DictionarySource::column(Index j, std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == rows());
  for (Index r = 0; r < rows(); ++r)
    out[static_cast<std::size_t>(r)] =
        dictionary_->evaluate(j, samples_->row(r));
}

}  // namespace rsm
