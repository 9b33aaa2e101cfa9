#include "core/model.hpp"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

std::shared_ptr<const BasisDictionary> quad_dict(Index n) {
  return std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
}

TEST(SparseModel, PredictMatchesManualEvaluation) {
  auto dict = quad_dict(3);
  // f = 2 + 3*y0 - 1.5*H2(y1).
  const SparseModel model(dict, {{0, 2.0}, {1, 3.0}, {5, -1.5}});
  const std::vector<Real> sample{0.5, -1.0, 2.0};
  const Real expected = 2.0 + 3.0 * 0.5 - 1.5 * ((1.0 - 1) / std::sqrt(2.0));
  EXPECT_NEAR(model.predict(sample), expected, 1e-12);
}

TEST(SparseModel, DropsZeroCoefficients) {
  auto dict = quad_dict(2);
  const SparseModel model(dict, {{0, 1.0}, {1, 0.0}, {2, 2.0}});
  EXPECT_EQ(model.num_terms(), 2);
}

TEST(SparseModel, FromDenseThreshold) {
  auto dict = quad_dict(2);
  std::vector<Real> dense(static_cast<std::size_t>(dict->size()), 0.0);
  dense[0] = 1.0;
  dense[1] = 1e-8;
  dense[3] = -0.5;
  const SparseModel model = SparseModel::from_dense(dict, dense, 1e-6);
  EXPECT_EQ(model.num_terms(), 2);
}

TEST(SparseModel, OutOfRangeIndexThrows) {
  auto dict = quad_dict(2);
  EXPECT_THROW(SparseModel(dict, {{dict->size(), 1.0}}), Error);
}

TEST(SparseModel, PredictAllMatchesLoop) {
  auto dict = quad_dict(4);
  Rng rng(601);
  const SparseModel model(dict, {{0, 1.0}, {2, -2.0}, {7, 0.5}});
  const Matrix samples = monte_carlo_normal(10, 4, rng);
  const std::vector<Real> all = model.predict_all(samples);
  for (Index k = 0; k < 10; ++k)
    EXPECT_NEAR(all[static_cast<std::size_t>(k)],
                model.predict(samples.row(k)), 1e-14);
}

TEST(SparseModel, AnalyticMeanIsConstantCoefficient) {
  auto dict = quad_dict(3);
  const SparseModel model(dict, {{0, 4.5}, {1, 2.0}, {4, 1.0}});
  EXPECT_DOUBLE_EQ(model.analytic_mean(), 4.5);
}

TEST(SparseModel, AnalyticVarianceIsParseval) {
  auto dict = quad_dict(3);
  const SparseModel model(dict, {{0, 4.5}, {1, 2.0}, {4, 1.0}});
  EXPECT_DOUBLE_EQ(model.analytic_variance(), 4.0 + 1.0);
}

TEST(SparseModel, AnalyticMomentsMatchMonteCarlo) {
  auto dict = quad_dict(4);
  const SparseModel model(dict, {{0, 1.0}, {1, 0.8}, {6, -0.6}, {9, 0.4}});
  Rng rng(602);
  const Matrix samples = monte_carlo_normal(200000, 4, rng);
  const std::vector<Real> vals = model.predict_all(samples);
  EXPECT_NEAR(mean(vals), model.analytic_mean(), 0.01);
  EXPECT_NEAR(variance(vals), model.analytic_variance(), 0.05);
}

TEST(SparseModel, ToStringSortsByMagnitude) {
  auto dict = quad_dict(2);
  const SparseModel model(dict, {{1, 0.1}, {2, -5.0}, {3, 1.0}});
  const std::string s = model.to_string();
  const auto pos_big = s.find("-5");
  const auto pos_small = s.find("0.1");
  EXPECT_NE(pos_big, std::string::npos);
  EXPECT_NE(pos_small, std::string::npos);
  EXPECT_LT(pos_big, pos_small);
}

TEST(SparseModel, DefaultConstructedThrowsOnUse) {
  const SparseModel model;
  EXPECT_THROW((void)model.dictionary(), Error);
}

}  // namespace
}  // namespace rsm
