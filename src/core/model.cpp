#include "core/model.hpp"

#include "basis/hermite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace rsm {

SparseModel::SparseModel(std::shared_ptr<const BasisDictionary> dictionary,
                         std::vector<ModelTerm> terms)
    : dictionary_(std::move(dictionary)) {
  RSM_CHECK(dictionary_ != nullptr);
  terms_.reserve(terms.size());
  for (const ModelTerm& t : terms) {
    RSM_CHECK_MSG(t.basis_index >= 0 && t.basis_index < dictionary_->size(),
                  "model term index " << t.basis_index
                                      << " outside dictionary of size "
                                      << dictionary_->size());
    if (t.coefficient != Real{0}) terms_.push_back(t);
  }
  build_plan();
}

void SparseModel::build_plan() {
  plan_vars_.clear();
  plan_var_max_order_.clear();
  plan_var_offset_.clear();
  plan_table_size_ = 0;
  plan_factors_.clear();
  plan_term_begin_.clear();
  if (terms_.empty()) return;

  // Active variable set with per-variable max order: collect every factor
  // occurrence, sort by variable, coalesce.
  std::vector<std::pair<Index, int>> occurrences;
  for (const ModelTerm& t : terms_)
    for (const IndexTerm& f : dictionary().index(t.basis_index).terms())
      occurrences.emplace_back(f.variable, f.order);
  std::sort(occurrences.begin(), occurrences.end());
  for (const auto& [variable, order] : occurrences) {
    if (plan_vars_.empty() || plan_vars_.back() != variable) {
      plan_vars_.push_back(variable);
      plan_var_max_order_.push_back(order);
    } else {
      plan_var_max_order_.back() = std::max(plan_var_max_order_.back(), order);
    }
  }
  plan_var_offset_.reserve(plan_vars_.size());
  for (const int max_order : plan_var_max_order_) {
    plan_var_offset_.push_back(plan_table_size_);
    plan_table_size_ += static_cast<std::size_t>(max_order + 1);
  }

  // Flattened factor list, term-major, preserving each multi-index's own
  // factor order (the scalar product order — bit-identity depends on it).
  plan_term_begin_.reserve(terms_.size() + 1);
  for (const ModelTerm& t : terms_) {
    plan_term_begin_.push_back(plan_factors_.size());
    for (const IndexTerm& f : dictionary().index(t.basis_index).terms()) {
      const auto slot_it =
          std::lower_bound(plan_vars_.begin(), plan_vars_.end(), f.variable);
      plan_factors_.push_back(
          {static_cast<std::uint32_t>(slot_it - plan_vars_.begin()), f.order});
    }
  }
  plan_term_begin_.push_back(plan_factors_.size());
}

SparseModel SparseModel::from_dense(
    std::shared_ptr<const BasisDictionary> dictionary,
    std::span<const Real> coefficients, Real threshold) {
  RSM_CHECK(dictionary != nullptr);
  RSM_CHECK(static_cast<Index>(coefficients.size()) == dictionary->size());
  std::vector<ModelTerm> terms;
  for (Index m = 0; m < dictionary->size(); ++m) {
    const Real c = coefficients[static_cast<std::size_t>(m)];
    if (std::abs(c) > threshold) terms.push_back({m, c});
  }
  return SparseModel(std::move(dictionary), std::move(terms));
}

const BasisDictionary& SparseModel::dictionary() const {
  RSM_CHECK(dictionary_ != nullptr);
  return *dictionary_;
}

Real SparseModel::predict(std::span<const Real> sample) const {
  return predict_sample(sample);
}

Real SparseModel::predict(io::RealsView sample) const {
  return predict_sample(sample);
}

template <class Samples>
Real SparseModel::predict_sample(const Samples& sample) const {
  if (terms_.empty()) return 0;
  RSM_CHECK(static_cast<Index>(sample.size()) == dictionary().num_variables());
  // Memoize g_0..g_max once per active variable (several terms usually share
  // factors), then each term is a product of table lookups. The table rows
  // come from hermite_normalized_all, which runs the identical recurrence
  // hermite_normalized runs per call, so results are bit-identical to the
  // former per-term evaluation.
  thread_local std::vector<Real> table;
  if (table.size() < plan_table_size_) table.resize(plan_table_size_);
  for (std::size_t s = 0; s < plan_vars_.size(); ++s) {
    const int max_order = plan_var_max_order_[s];
    hermite_normalized_all(
        max_order, sample[static_cast<std::size_t>(plan_vars_[s])],
        std::span<Real>(table.data() + plan_var_offset_[s],
                        static_cast<std::size_t>(max_order + 1)));
  }
  Real sum = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    Real product = 1;
    for (std::size_t f = plan_term_begin_[i]; f < plan_term_begin_[i + 1];
         ++f) {
      const PlanFactor& pf = plan_factors_[f];
      product *=
          table[plan_var_offset_[pf.slot] + static_cast<std::size_t>(pf.order)];
    }
    sum += terms_[i].coefficient * product;
  }
  return sum;
}

namespace {

/// Samples per batched-evaluation block: large enough to amortize the
/// column fills and keep the per-term inner loops vectorizable, small
/// enough that the whole order table stays cache-resident.
constexpr std::size_t kEvalBlock = 64;

}  // namespace

// Column layout: for active-variable slot s, orders 1..max_order occupy
// kEvalBlock-wide columns starting at (plan_var_offset_[s] - s). Order 0 is
// never materialized — multi-index factors always have order >= 1 and the
// recurrence only needs the constant 1 at its first step.
std::size_t SparseModel::column_offset(PlanFactor pf) const {
  return (plan_var_offset_[pf.slot] - pf.slot +
          static_cast<std::size_t>(pf.order - 1)) *
         kEvalBlock;
}

template <class Samples, class Body>
void SparseModel::for_each_block(const Samples& samples, Index rows,
                                 const Body& body) const {
  const std::size_t cols =
      static_cast<std::size_t>(dictionary().num_variables());
  const std::size_t num_slots = plan_vars_.size();
  thread_local std::vector<Real> table;
  const std::size_t needed = (plan_table_size_ - num_slots) * kEvalBlock;
  if (table.size() < needed) table.resize(needed);
  Real* tab = table.data();

  for (Index r0 = 0; r0 < rows; r0 += static_cast<Index>(kEvalBlock)) {
    const std::size_t bsz = std::min(
        kEvalBlock, static_cast<std::size_t>(rows - r0));
    // Fill the order columns by the vector form of the same normalized
    // recurrence hermite_normalized_all runs per sample — elementwise the
    // arithmetic is identical, so every table entry is bit-identical to the
    // scalar path's.
    const std::size_t first = static_cast<std::size_t>(r0) * cols;
    for (std::size_t s = 0; s < num_slots; ++s) {
      const std::size_t v = first + static_cast<std::size_t>(plan_vars_[s]);
      Real* g1 = tab + column_offset({static_cast<std::uint32_t>(s), 1});
      for (std::size_t b = 0; b < bsz; ++b) g1[b] = samples[b * cols + v];
      for (int k = 1; k < plan_var_max_order_[s]; ++k) {
        const Real sk = std::sqrt(static_cast<Real>(k));
        const Real sk1 = std::sqrt(static_cast<Real>(k + 1));
        Real* gk = g1 + static_cast<std::size_t>(k - 1) * kEvalBlock;
        Real* gn = gk + kEvalBlock;
        if (k == 1) {
          for (std::size_t b = 0; b < bsz; ++b)
            gn[b] = (g1[b] * gk[b] - sk * Real{1}) / sk1;
        } else {
          const Real* gp = gk - kEvalBlock;
          for (std::size_t b = 0; b < bsz; ++b)
            gn[b] = (g1[b] * gk[b] - sk * gp[b]) / sk1;
        }
      }
    }
    body(static_cast<const Real*>(tab), r0, bsz);
  }
}

void SparseModel::predict_batch(const Matrix& samples,
                                std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == samples.rows());
  if (terms_.empty()) {
    std::fill(out.begin(), out.end(), Real{0});
    return;
  }
  RSM_CHECK(samples.cols() == dictionary().num_variables());
  predict_batch(
      std::span<const Real>(samples.data(),
                            static_cast<std::size_t>(samples.size())),
      samples.rows(), out);
}

void SparseModel::predict_batch(std::span<const Real> samples, Index rows,
                                std::span<Real> out) const {
  predict_rows(samples, rows, out);
}

void SparseModel::predict_batch(io::RealsView samples, Index rows,
                                std::span<Real> out) const {
  predict_rows(samples, rows, out);
}

template <class Samples>
void SparseModel::predict_rows(const Samples& samples, Index rows,
                               std::span<Real> out) const {
  RSM_CHECK(static_cast<Index>(out.size()) == rows);
  std::fill(out.begin(), out.end(), Real{0});
  if (terms_.empty()) return;
  RSM_CHECK(static_cast<Index>(samples.size()) ==
            rows * dictionary().num_variables());

  for_each_block(samples, rows, [&](const Real* tab, Index r0,
                                    std::size_t bsz) {
    // Accumulate terms in declaration order with the scalar product order.
    // The 0- and 1-factor fast paths are exact rewrites: c * 1 == c and
    // 1 * g == g bit-exactly in IEEE arithmetic.
    Real* acc = out.data() + r0;
    Real prod[kEvalBlock];
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const Real c = terms_[i].coefficient;
      const std::size_t f0 = plan_term_begin_[i];
      const std::size_t f1 = plan_term_begin_[i + 1];
      if (f1 == f0) {
        for (std::size_t b = 0; b < bsz; ++b) acc[b] += c;
      } else if (f1 == f0 + 1) {
        const Real* g = tab + column_offset(plan_factors_[f0]);
        for (std::size_t b = 0; b < bsz; ++b) acc[b] += c * g[b];
      } else {
        const Real* g = tab + column_offset(plan_factors_[f0]);
        for (std::size_t b = 0; b < bsz; ++b) prod[b] = g[b];
        for (std::size_t f = f0 + 1; f < f1; ++f) {
          const Real* gf = tab + column_offset(plan_factors_[f]);
          for (std::size_t b = 0; b < bsz; ++b) prod[b] *= gf[b];
        }
        for (std::size_t b = 0; b < bsz; ++b) acc[b] += c * prod[b];
      }
    }
  });
}

void SparseModel::gradient_rows(std::span<const Real> samples, Index rows,
                                std::span<Real> grad) const {
  const std::size_t n =
      static_cast<std::size_t>(dictionary().num_variables());
  RSM_CHECK(samples.size() == static_cast<std::size_t>(rows) * n);
  RSM_CHECK(grad.size() == samples.size());
  if (terms_.empty()) return;

  for_each_block(samples, rows, [&](const Real* tab, Index r0,
                                    std::size_t bsz) {
    Real* block_grad = grad.data() + static_cast<std::size_t>(r0) * n;
    // d/d y_v of prod_i g_{o_i}(y_{v_i}): per term, differentiate one factor
    // (g_o' = sqrt(o) g_{o-1}, where g_0 == 1 needs no column), keep the
    // others in their stored order, and skip when the partial is exactly
    // zero.
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const Real c = terms_[i].coefficient;
      const std::size_t f0 = plan_term_begin_[i];
      const std::size_t f1 = plan_term_begin_[i + 1];
      for (std::size_t d = f0; d < f1; ++d) {
        const PlanFactor& pd = plan_factors_[d];
        const Real sq = std::sqrt(static_cast<Real>(pd.order));
        const Real* gm1 =
            pd.order >= 2 ? tab + column_offset({pd.slot, pd.order - 1})
                          : nullptr;
        const std::size_t var_d = static_cast<std::size_t>(plan_vars_[pd.slot]);
        for (std::size_t b = 0; b < bsz; ++b) {
          const Real der = pd.order == 1 ? sq : sq * gm1[b];
          Real partial = c * der;
          if (partial == Real{0}) continue;
          for (std::size_t o = f0; o < f1; ++o) {
            if (o == d) continue;
            partial *= tab[column_offset(plan_factors_[o]) + b];
          }
          block_grad[b * n + var_d] += partial;
        }
      }
    }
  });
}

Matrix SparseModel::gradient_batch(const Matrix& samples) const {
  RSM_CHECK(samples.cols() == dictionary().num_variables());
  Matrix grad(samples.rows(), samples.cols());
  gradient_rows(
      std::span<const Real>(samples.data(),
                            static_cast<std::size_t>(samples.size())),
      samples.rows(),
      std::span<Real>(grad.data(), static_cast<std::size_t>(grad.size())));
  return grad;
}

std::vector<Real> SparseModel::gradient(std::span<const Real> sample) const {
  std::vector<Real> grad(sample.size(), Real{0});
  gradient_rows(sample, 1, grad);
  return grad;
}

std::vector<Real> SparseModel::predict_all(const Matrix& samples) const {
  // Delegates to the batched engine; bit-identical to per-row predict.
  std::vector<Real> out(static_cast<std::size_t>(samples.rows()));
  predict_batch(samples, out);
  return out;
}

Real SparseModel::analytic_mean() const {
  for (const ModelTerm& t : terms_)
    if (dictionary().index(t.basis_index).is_constant()) return t.coefficient;
  return 0;
}

Real SparseModel::analytic_variance() const {
  Real var = 0;
  for (const ModelTerm& t : terms_)
    if (!dictionary().index(t.basis_index).is_constant())
      var += t.coefficient * t.coefficient;
  return var;
}

namespace {

/// E[g_i g_j g_k] for three multi-indices: product over every variable of
/// the 1-D triple-product coefficient (order 0 where a variable is absent).
Real triple_expectation(const MultiIndex& i, const MultiIndex& j,
                        const MultiIndex& k) {
  // Three-way sorted merge over the variables of the three indices.
  const auto& ti = i.terms();
  const auto& tj = j.terms();
  const auto& tk = k.terms();
  std::size_t pi = 0, pj = 0, pk = 0;
  Real product = 1;
  while (pi < ti.size() || pj < tj.size() || pk < tk.size()) {
    Index v = std::numeric_limits<Index>::max();
    if (pi < ti.size()) v = std::min(v, ti[pi].variable);
    if (pj < tj.size()) v = std::min(v, tj[pj].variable);
    if (pk < tk.size()) v = std::min(v, tk[pk].variable);
    int a = 0, b = 0, c = 0;
    if (pi < ti.size() && ti[pi].variable == v) a = ti[pi++].order;
    if (pj < tj.size() && tj[pj].variable == v) b = tj[pj++].order;
    if (pk < tk.size() && tk[pk].variable == v) c = tk[pk++].order;
    product *= hermite_triple_product(a, b, c);
    if (product == Real{0}) return 0;
  }
  return product;
}

}  // namespace

Real SparseModel::analytic_third_moment() const {
  // Only non-constant terms contribute to central moments.
  std::vector<const ModelTerm*> active;
  for (const ModelTerm& t : terms_)
    if (!dictionary().index(t.basis_index).is_constant())
      active.push_back(&t);

  Real mu3 = 0;
  for (const ModelTerm* a : active) {
    const MultiIndex& ia = dictionary().index(a->basis_index);
    for (const ModelTerm* b : active) {
      const MultiIndex& ib = dictionary().index(b->basis_index);
      for (const ModelTerm* c : active) {
        mu3 += a->coefficient * b->coefficient * c->coefficient *
               triple_expectation(ia, ib, dictionary().index(c->basis_index));
      }
    }
  }
  return mu3;
}

Real SparseModel::analytic_skewness() const {
  const Real var = analytic_variance();
  if (var <= 0) return 0;
  return analytic_third_moment() / std::pow(var, Real{1.5});
}

std::string SparseModel::to_string(Index max_terms) const {
  std::vector<ModelTerm> sorted = terms_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ModelTerm& a, const ModelTerm& b) {
              return std::abs(a.coefficient) > std::abs(b.coefficient);
            });
  std::ostringstream os;
  os << "SparseModel with " << terms_.size() << " terms:\n";
  const Index show = std::min<Index>(max_terms, num_terms());
  for (Index i = 0; i < show; ++i) {
    const ModelTerm& t = sorted[static_cast<std::size_t>(i)];
    os << "  " << t.coefficient << " * "
       << dictionary().index(t.basis_index).to_string() << "\n";
  }
  if (show < num_terms()) os << "  ... (" << num_terms() - show << " more)\n";
  return os.str();
}

}  // namespace rsm
