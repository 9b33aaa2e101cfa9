#include "basis/dictionary.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "basis/hermite.hpp"

namespace rsm {

BasisDictionary::BasisDictionary(Index num_variables,
                                 std::vector<MultiIndex> indices)
    : num_variables_(num_variables), indices_(std::move(indices)) {
  RSM_CHECK(num_variables > 0);
  RSM_CHECK(!indices_.empty());
  for (const MultiIndex& mi : indices_) {
    for (const IndexTerm& t : mi.terms()) {
      RSM_CHECK_MSG(t.variable < num_variables,
                    "multi-index references variable " << t.variable
                        << " but dictionary has " << num_variables);
      max_order_ = std::max(max_order_, t.order);
    }
  }
}

BasisDictionary BasisDictionary::linear(Index num_variables) {
  return {num_variables, make_linear_indices(num_variables)};
}

BasisDictionary BasisDictionary::quadratic(Index num_variables) {
  return {num_variables, make_quadratic_indices(num_variables)};
}

BasisDictionary BasisDictionary::total_degree(Index num_variables,
                                              int degree) {
  return {num_variables, make_total_degree_indices(num_variables, degree)};
}

BasisDictionary BasisDictionary::hyperbolic(Index num_variables, int degree) {
  return {num_variables, make_hyperbolic_indices(num_variables, degree)};
}

const MultiIndex& BasisDictionary::index(Index m) const {
  RSM_CHECK(m >= 0 && m < size());
  return indices_[static_cast<std::size_t>(m)];
}

Real BasisDictionary::evaluate(Index m, std::span<const Real> sample) const {
  RSM_CHECK(static_cast<Index>(sample.size()) == num_variables_);
  Real product = 1;
  for (const IndexTerm& t : index(m).terms())
    product *= hermite_normalized(t.order,
                                  sample[static_cast<std::size_t>(t.variable)]);
  return product;
}

std::vector<Real> BasisDictionary::evaluate_column(Index m,
                                                   const Matrix& samples) const {
  RSM_CHECK(samples.cols() == num_variables_);
  std::vector<Real> col(static_cast<std::size_t>(samples.rows()));
  for (Index k = 0; k < samples.rows(); ++k)
    col[static_cast<std::size_t>(k)] = evaluate(m, samples.row(k));
  return col;
}

Matrix BasisDictionary::design_matrix(const Matrix& samples) const {
  RSM_CHECK(samples.cols() == num_variables_);
  Matrix g(samples.rows(), size());
  std::vector<Real> table;
  for (Index k = 0; k < samples.rows(); ++k)
    evaluate_row(samples.row(k), table, g.row(k));
  return g;
}

void BasisDictionary::evaluate_row(std::span<const Real> sample,
                                   std::vector<Real>& table,
                                   std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(sample.size()) == num_variables_);
  RSM_CHECK(static_cast<Index>(out.size()) == size());
  // The table costs O(N * max_order) per row vs O(M * terms) lookups —
  // essential when M is ~20k and most indices share factors.
  const auto stride = static_cast<std::size_t>(max_order_ + 1);
  table.resize(static_cast<std::size_t>(num_variables_) * stride);
  for (std::size_t v = 0; v < sample.size(); ++v)
    hermite_normalized_all(max_order_, sample[v],
                           std::span<Real>(table).subspan(v * stride, stride));
  for (Index m = 0; m < size(); ++m) {
    Real product = 1;
    for (const IndexTerm& t : indices_[static_cast<std::size_t>(m)].terms())
      product *= table[static_cast<std::size_t>(t.variable) * stride +
                       static_cast<std::size_t>(t.order)];
    out[static_cast<std::size_t>(m)] = product;
  }
}

void BasisDictionary::save(std::ostream& out) const {
  out << "basis_dictionary v1\n" << num_variables_ << " " << size() << "\n";
  for (const MultiIndex& mi : indices_) {
    out << mi.terms().size();
    for (const IndexTerm& t : mi.terms())
      out << " " << t.variable << " " << t.order;
    out << "\n";
  }
}

BasisDictionary BasisDictionary::load(std::istream& in) {
  std::string tag, version;
  in >> tag >> version;
  RSM_CHECK_MSG(tag == "basis_dictionary" && version == "v1",
                "unrecognized dictionary file header");
  Index num_variables = 0, count = 0;
  in >> num_variables >> count;
  RSM_CHECK_MSG(in && num_variables > 0 && count > 0,
                "malformed dictionary header");
  std::vector<MultiIndex> indices;
  indices.reserve(static_cast<std::size_t>(count));
  for (Index i = 0; i < count; ++i) {
    std::size_t num_terms = 0;
    in >> num_terms;
    std::vector<IndexTerm> terms(num_terms);
    for (IndexTerm& t : terms) in >> t.variable >> t.order;
    RSM_CHECK_MSG(static_cast<bool>(in), "truncated dictionary file");
    indices.push_back(MultiIndex(std::move(terms)));
  }
  return {num_variables, std::move(indices)};
}

}  // namespace rsm
