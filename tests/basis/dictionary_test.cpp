#include "basis/dictionary.hpp"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "basis/hermite.hpp"
#include "linalg/blas.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

TEST(Dictionary, SizesMatchGenerators) {
  EXPECT_EQ(BasisDictionary::linear(10).size(), 11);
  EXPECT_EQ(BasisDictionary::quadratic(10).size(), 66);
  EXPECT_EQ(BasisDictionary::total_degree(3, 3).size(), 20);
}

TEST(Dictionary, EvaluateMatchesHandComputation) {
  const BasisDictionary dict = BasisDictionary::quadratic(2);
  const std::vector<Real> sample{0.5, -1.5};
  // Index order: 1, y0, y1, H2(y0), H2(y1), y0*y1.
  EXPECT_NEAR(dict.evaluate(0, sample), 1.0, 1e-14);
  EXPECT_NEAR(dict.evaluate(1, sample), 0.5, 1e-14);
  EXPECT_NEAR(dict.evaluate(2, sample), -1.5, 1e-14);
  EXPECT_NEAR(dict.evaluate(3, sample), (0.25 - 1) / std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(dict.evaluate(4, sample), (2.25 - 1) / std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(dict.evaluate(5, sample), 0.5 * -1.5, 1e-14);
}

TEST(Dictionary, DesignMatrixMatchesPointwiseEvaluation) {
  Rng rng(55);
  const BasisDictionary dict = BasisDictionary::quadratic(5);
  const Matrix samples = monte_carlo_normal(20, 5, rng);
  const Matrix g = dict.design_matrix(samples);
  ASSERT_EQ(g.rows(), 20);
  ASSERT_EQ(g.cols(), dict.size());
  for (Index k = 0; k < 20; ++k)
    for (Index m = 0; m < dict.size(); ++m)
      EXPECT_NEAR(g(k, m), dict.evaluate(m, samples.row(k)), 1e-13);
}

TEST(Dictionary, DesignRowMatchesDesignMatrix) {
  // Total degree 4: orders up to 4, so the per-row Hermite table holds five
  // orders per variable. The scratch table starts stale (wrong size, junk
  // values) and is reused across rows, as the streaming column source does.
  Rng rng(56);
  const BasisDictionary dict = BasisDictionary::total_degree(3, 4);
  const Matrix samples = monte_carlo_normal(4, 3, rng);
  const Matrix g = dict.design_matrix(samples);
  std::vector<Real> table(2, 1e300);
  std::vector<Real> row(static_cast<std::size_t>(dict.size()));
  for (Index k = 0; k < 4; ++k) {
    dict.evaluate_row(samples.row(k), table, row);
    for (Index m = 0; m < dict.size(); ++m)
      EXPECT_NEAR(row[static_cast<std::size_t>(m)], g(k, m), 1e-13);
  }
}

TEST(Dictionary, EvaluateColumnMatches) {
  Rng rng(57);
  const BasisDictionary dict = BasisDictionary::quadratic(4);
  const Matrix samples = monte_carlo_normal(15, 4, rng);
  const Matrix g = dict.design_matrix(samples);
  for (Index m : {0L, 3L, 7L, dict.size() - 1}) {
    const std::vector<Real> col = dict.evaluate_column(m, samples);
    for (Index k = 0; k < 15; ++k)
      EXPECT_NEAR(col[static_cast<std::size_t>(k)], g(k, m), 1e-13);
  }
}

TEST(Dictionary, EmpiricalOrthonormality) {
  // (1/K) G'G -> I as K grows: the sampled basis vectors approximate the
  // continuous orthonormality of eq. (2). This is the property OMP's
  // inner-product criterion (eq. 13/14) relies on.
  Rng rng(58);
  const BasisDictionary dict = BasisDictionary::quadratic(3);
  const Index k = 60000;
  const Matrix samples = monte_carlo_normal(k, 3, rng);
  const Matrix g = dict.design_matrix(samples);
  Matrix gtg = gram(g);
  gtg *= Real{1} / static_cast<Real>(k);
  EXPECT_LT(max_abs_diff(gtg, Matrix::identity(dict.size())), 0.05);
}

TEST(Dictionary, MaxOrder) {
  EXPECT_EQ(BasisDictionary::linear(4).max_order(), 1);
  EXPECT_EQ(BasisDictionary::quadratic(4).max_order(), 2);
  EXPECT_EQ(BasisDictionary::total_degree(2, 6).max_order(), 6);
}

TEST(Dictionary, SaveLoadRoundTrip) {
  const BasisDictionary dict = BasisDictionary::hyperbolic(7, 3);
  std::stringstream ss;
  dict.save(ss);
  const BasisDictionary loaded = BasisDictionary::load(ss);
  ASSERT_EQ(loaded.size(), dict.size());
  ASSERT_EQ(loaded.num_variables(), dict.num_variables());
  EXPECT_EQ(loaded.max_order(), dict.max_order());
  for (Index m = 0; m < dict.size(); ++m)
    EXPECT_EQ(loaded.index(m), dict.index(m)) << "index " << m;
}

TEST(Dictionary, SavedModelReloadsAgainstSavedDictionary) {
  // The deployment round trip: dictionary + model saved, both reloaded,
  // predictions identical.
  Rng rng(59);
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(5));
  std::stringstream dict_file;
  dict->save(dict_file);

  auto reloaded =
      std::make_shared<BasisDictionary>(BasisDictionary::load(dict_file));
  const Matrix samples = monte_carlo_normal(10, 5, rng);
  for (Index k = 0; k < 10; ++k)
    for (Index m = 0; m < dict->size(); ++m)
      EXPECT_DOUBLE_EQ(reloaded->evaluate(m, samples.row(k)),
                       dict->evaluate(m, samples.row(k)));
}

TEST(Dictionary, LoadRejectsGarbage) {
  std::stringstream ss("who knows");
  EXPECT_THROW((void)BasisDictionary::load(ss), Error);
}

TEST(Dictionary, RejectsOutOfRangeVariable) {
  std::vector<MultiIndex> idx{MultiIndex::linear(5)};
  EXPECT_THROW(BasisDictionary(3, idx), Error);
}

TEST(Dictionary, RejectsWrongSampleSize) {
  const BasisDictionary dict = BasisDictionary::linear(4);
  EXPECT_THROW((void)dict.evaluate(0, std::vector<Real>{1.0, 2.0}), Error);
}

}  // namespace
}  // namespace rsm
