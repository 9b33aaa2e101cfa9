#include "core/somp.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/omp.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace rsm {
namespace {

/// Builds R responses sharing a support over random columns.
struct JointProblem {
  Matrix g;
  Matrix responses;
  std::vector<Index> support;
};

JointProblem make_joint(Index k, Index m, Index p, Index num_responses,
                        std::uint64_t seed, Real noise = 0.0) {
  Rng rng(seed);
  JointProblem prob;
  prob.g = monte_carlo_normal(k, m, rng);
  std::set<Index> chosen;
  while (static_cast<Index>(chosen.size()) < p)
    chosen.insert(rng.uniform_index(m));
  prob.support.assign(chosen.begin(), chosen.end());
  prob.responses = Matrix(k, num_responses);
  for (Index r = 0; r < num_responses; ++r) {
    std::vector<Real> y(static_cast<std::size_t>(k), 0.0);
    for (Index s : prob.support)
      axpy(rng.normal(0, 1.0) + (rng.uniform() < 0.5 ? -1.5 : 1.5),
           prob.g.col(s), y);
    for (Real& v : y) v += noise * rng.normal();
    prob.responses.set_col(r, y);
  }
  return prob;
}

TEST(Somp, RecoversSharedSupport) {
  const JointProblem prob = make_joint(80, 200, 6, 4, 801);
  const SompResult result =
      SompSolver().fit(MaterializedSource(prob.g), prob.responses, 6);
  const std::set<Index> found(result.support.begin(), result.support.end());
  for (Index s : prob.support) EXPECT_TRUE(found.count(s)) << "missing " << s;
  for (Real rn : result.residual_norms) EXPECT_LT(rn, 1e-8);
}

TEST(Somp, CoefficientsMatchPerResponseLsOnSupport) {
  const JointProblem prob = make_joint(60, 100, 4, 3, 802, 0.05);
  const SompResult result =
      SompSolver().fit(MaterializedSource(prob.g), prob.responses, 4);
  ASSERT_EQ(result.support.size(), 4u);
  // Per response, coefficients must equal OMP restricted to the same
  // support — verify via the normal equations residual orthogonality.
  for (Index r = 0; r < 3; ++r) {
    std::vector<Real> residual = prob.responses.col(r);
    for (std::size_t s = 0; s < result.support.size(); ++s)
      axpy(-result.coefficients[static_cast<std::size_t>(r)][s],
           prob.g.col(result.support[s]), residual);
    for (Index s : result.support)
      EXPECT_NEAR(dot(prob.g.col(s), residual), 0.0, 1e-8);
  }
}

TEST(Somp, JointSelectionBeatsWeakSingleResponse) {
  // A column that is moderately present in EVERY response outranks one that
  // is strong in a single response — the point of joint scoring.
  Rng rng(803);
  const Index k = 150, m = 50;
  Matrix g = monte_carlo_normal(k, m, rng);
  const Index shared_col = 7, solo_col = 33;
  Matrix responses(k, 4);
  for (Index r = 0; r < 4; ++r) {
    std::vector<Real> y(static_cast<std::size_t>(k), 0.0);
    axpy(1.0, g.col(shared_col), y);  // moderate, everywhere
    if (r == 0) axpy(1.6, g.col(solo_col), y);  // strong, one response
    for (Real& v : y) v += 0.05 * rng.normal();
    responses.set_col(r, y);
  }
  const SompResult result =
      SompSolver().fit(MaterializedSource(g), responses, 1);
  ASSERT_EQ(result.support.size(), 1u);
  EXPECT_EQ(result.support[0], shared_col);
}

TEST(Somp, SingleResponseReducesToOmp) {
  Rng rng(804);
  const Index k = 70, m = 120;
  const Matrix g = monte_carlo_normal(k, m, rng);
  Matrix responses(k, 1);
  responses.set_col(0, rng.normal_vector(k));
  const std::vector<Real> f = responses.col(0);

  const SompResult somp = SompSolver().fit(MaterializedSource(g), responses, 8);
  const SolverPath omp = OmpSolver().fit_path(MaterializedSource(g), f, 8);
  ASSERT_EQ(somp.support.size(), omp.selection_order.size());
  for (std::size_t i = 0; i < somp.support.size(); ++i)
    EXPECT_EQ(somp.support[i], omp.selection_order[i]) << "step " << i;
}

TEST(Somp, ScoreToleranceStopsEarly) {
  const JointProblem prob = make_joint(80, 150, 3, 2, 805);
  SompSolver::Options opt;
  opt.score_tolerance = 1e-6;  // once the true support is absorbed, scores
                               // collapse and the solver stops
  const SompResult result =
      SompSolver(opt).fit(MaterializedSource(prob.g), prob.responses, 50);
  EXPECT_LE(result.support.size(), 6u);
  EXPECT_GE(result.support.size(), 3u);
}

TEST(Somp, ShapeValidation) {
  Rng rng(806);
  const Matrix g = monte_carlo_normal(20, 10, rng);
  Matrix bad(19, 2);  // row mismatch
  EXPECT_THROW(SompSolver().fit(MaterializedSource(g), bad, 3), Error);
}

}  // namespace
}  // namespace rsm
