// Bit-identity contract of the batched evaluation engine (and of the
// memoized scalar path it shares a plan with): predict_batch must reproduce
// predict bit for bit, predict itself must reproduce the pre-memoization
// reference arithmetic — a term-by-term sum of coefficient * per-factor
// Hermite products — and gradient/gradient_batch must reproduce the
// factor-by-factor reference gradient. The serving layer advertises "same
// model, same bits" across the registry round trip and the scalar/batched
// split; these tests are that claim.
#include "core/model.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "basis/hermite.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The pre-plan reference implementation of predict: evaluate each term's
/// basis function factor by factor in stored order, starting the product at
/// 1, and accumulate terms in declaration order. Any change to predict()
/// must keep matching this to the last bit.
Real reference_predict(const SparseModel& model, std::span<const Real> x) {
  Real sum = 0;
  for (const ModelTerm& term : model.terms()) {
    Real product = 1;
    for (const IndexTerm& factor :
         model.dictionary().index(term.basis_index).terms())
      product *= hermite_normalized(
          factor.order, x[static_cast<std::size_t>(factor.variable)]);
    sum += term.coefficient * product;
  }
  return sum;
}

/// The reference gradient, independent of the block engine: per term,
/// differentiate one factor with hermite_normalized_derivative, multiply the
/// others (hermite_normalized) in stored order, skip an exactly-zero
/// partial, and accumulate terms in declaration order.
std::vector<Real> reference_gradient(const SparseModel& model,
                                     std::span<const Real> x) {
  std::vector<Real> grad(x.size(), Real{0});
  for (const ModelTerm& term : model.terms()) {
    const auto& factors = model.dictionary().index(term.basis_index).terms();
    for (std::size_t d = 0; d < factors.size(); ++d) {
      Real partial =
          term.coefficient *
          hermite_normalized_derivative(
              factors[d].order, x[static_cast<std::size_t>(factors[d].variable)]);
      if (partial == Real{0}) continue;
      for (std::size_t o = 0; o < factors.size(); ++o) {
        if (o == d) continue;
        partial *= hermite_normalized(
            factors[o].order, x[static_cast<std::size_t>(factors[o].variable)]);
      }
      grad[static_cast<std::size_t>(factors[d].variable)] += partial;
    }
  }
  return grad;
}

/// A model touching the interesting plan shapes: the constant (no factors),
/// single-factor linear terms, repeated variables at different orders, and
/// a multi-factor cross term.
SparseModel mixed_model(Index n) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  std::vector<ModelTerm> terms;
  Rng rng(99);
  for (Index m = 0; m < dict->size(); m += 3)
    terms.push_back({m, rng.normal() * 0.7});
  return SparseModel(dict, std::move(terms));
}

TEST(ModelBatch, MemoizedPredictMatchesReferenceBitwise) {
  const SparseModel model = mixed_model(6);
  Rng rng(17);
  const Matrix samples = monte_carlo_normal(200, 6, rng);
  for (Index r = 0; r < samples.rows(); ++r) {
    const Real got = model.predict(samples.row(r));
    const Real want = reference_predict(model, samples.row(r));
    ASSERT_TRUE(same_bits(got, want))
        << "row " << r << ": " << got << " vs " << want;
  }
}

TEST(ModelBatch, PredictBatchBitIdenticalToScalar) {
  const SparseModel model = mixed_model(5);
  Rng rng(23);
  // Row counts around the internal block size (64) exercise full blocks,
  // partial tails, and the single-row degenerate case.
  for (const Index rows : {1, 7, 63, 64, 65, 130, 256}) {
    const Matrix samples = monte_carlo_normal(rows, 5, rng);
    std::vector<Real> out(static_cast<std::size_t>(rows));
    model.predict_batch(samples, out);
    for (Index r = 0; r < rows; ++r)
      ASSERT_TRUE(
          same_bits(out[static_cast<std::size_t>(r)], model.predict(samples.row(r))))
          << "rows=" << rows << " r=" << r;
  }
}

TEST(ModelBatch, RawSpanOverloadMatchesMatrixOverload) {
  const SparseModel model = mixed_model(4);
  Rng rng(31);
  const Matrix samples = monte_carlo_normal(90, 4, rng);
  std::vector<Real> via_matrix(90);
  std::vector<Real> via_span(90);
  model.predict_batch(samples, via_matrix);
  model.predict_batch(
      std::span<const Real>(samples.data(),
                            static_cast<std::size_t>(samples.rows()) *
                                static_cast<std::size_t>(samples.cols())),
      samples.rows(), via_span);
  for (std::size_t r = 0; r < 90; ++r)
    ASSERT_TRUE(same_bits(via_matrix[r], via_span[r])) << "r=" << r;
  // Sub-range evaluation (what the server's chunked dispatch does) must
  // agree with evaluating the corresponding rows directly.
  std::vector<Real> tail(30);
  model.predict_batch(
      std::span<const Real>(samples.data() + 60 * samples.cols(),
                            static_cast<std::size_t>(30 * samples.cols())),
      30, tail);
  for (std::size_t r = 0; r < 30; ++r)
    ASSERT_TRUE(same_bits(tail[r], via_matrix[r + 60])) << "r=" << r;
}

TEST(ModelBatch, GradientBatchBitIdenticalToScalar) {
  const SparseModel model = mixed_model(5);
  Rng rng(47);
  for (const Index rows : {1, 64, 65, 100}) {
    const Matrix samples = monte_carlo_normal(rows, 5, rng);
    const Matrix grads = model.gradient_batch(samples);
    ASSERT_EQ(grads.rows(), rows);
    ASSERT_EQ(grads.cols(), 5);
    for (Index r = 0; r < rows; ++r) {
      const std::vector<Real> want = reference_gradient(model, samples.row(r));
      const std::vector<Real> scalar = model.gradient(samples.row(r));
      for (Index j = 0; j < 5; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        ASSERT_TRUE(same_bits(grads(r, j), want[sj]))
            << "rows=" << rows << " r=" << r << " j=" << j;
        ASSERT_TRUE(same_bits(scalar[sj], want[sj]))
            << "rows=" << rows << " r=" << r << " j=" << j;
      }
    }
  }
}

TEST(ModelBatch, PredictAllStillMatchesScalar) {
  const SparseModel model = mixed_model(3);
  Rng rng(53);
  const Matrix samples = monte_carlo_normal(70, 3, rng);
  const std::vector<Real> all = model.predict_all(samples);
  for (Index r = 0; r < 70; ++r)
    ASSERT_TRUE(same_bits(all[static_cast<std::size_t>(r)],
                          model.predict(samples.row(r))));
}

TEST(ModelBatch, EmptyModelAndEmptyBatch) {
  const SparseModel empty;
  EXPECT_EQ(empty.predict(std::vector<Real>{1.0, 2.0}), 0.0);

  const SparseModel model = mixed_model(3);
  std::vector<Real> out;
  model.predict_batch(Matrix(0, 3), out);  // no rows: no output, no crash

  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(3));
  const SparseModel no_terms(dict, {});
  Rng rng(5);
  const Matrix samples = monte_carlo_normal(10, 3, rng);
  std::vector<Real> zeros(10, 42.0);
  no_terms.predict_batch(samples, zeros);
  for (const Real v : zeros) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace rsm
